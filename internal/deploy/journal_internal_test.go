package deploy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
)

// stubCodec stands in for traceio's plan codec, which this package cannot
// import; the tests below never decode.
var stubCodec = JournalCodec{
	EncodePlan: func(*Plan) ([]byte, error) { return []byte("plan"), nil },
	DecodePlan: func([]byte) (*Plan, error) { return nil, errors.New("stub codec cannot decode") },
}

// TestJournalFailureIsSticky closes the journal's file under it so the
// next fsync (or write) fails, then hands it a working file again: the
// journal must keep refusing every append, Sync and Compact with
// ErrJournalFailed, because a later fsync that succeeds says nothing
// about the pages the failed one lost.
func TestJournalFailureIsSticky(t *testing.T) {
	snap, err := Snapshot(core.DefaultConfig(10, pricing.NewModel(pricing.C3Large)), EmptyState())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fail func(j *Journal) error
	}{
		{"fsync", func(j *Journal) error { return j.Sync() }},
		{"write", func(j *Journal) error { return j.AppendPlanCommit(0, "fp") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "apply.journal")
			j, err := OpenJournal(path, stubCodec, JournalOptions{SyncEvery: 100})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.AppendStepDone(0, 0); err != nil { // batched: not yet synced
				t.Fatal(err)
			}
			j.f.Close()
			err = tc.fail(j)
			if !errors.Is(err, ErrJournalFailed) || !errors.Is(err, os.ErrClosed) {
				t.Fatalf("first failure: %v, want ErrJournalFailed wrapping os.ErrClosed", err)
			}

			j.f, err = os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			st, err := j.f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			for name, op := range map[string]func() error{
				"Sync":            j.Sync,
				"AppendStepDone":  func() error { return j.AppendStepDone(0, 1) },
				"AppendPlanBegin": func() error { return j.AppendPlanBegin(0, snap) },
				"AppendSnapshot":  func() error { return j.AppendSnapshot(0, snap) },
				"Compact":         func() error { return j.Compact(0, snap) },
			} {
				if err := op(); !errors.Is(err, ErrJournalFailed) || !errors.Is(err, os.ErrClosed) {
					t.Errorf("%s after the failure: %v, want ErrJournalFailed wrapping the first error", name, err)
				}
			}
			if after, err := os.Stat(path); err != nil || after.Size() != st.Size() {
				t.Fatalf("refused operations changed the journal: %v, size %d → %d", err, st.Size(), after.Size())
			}
			if _, err := os.Stat(path + ".compact"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("refused Compact left a temp file: %v", err)
			}
			if err := j.Close(); !errors.Is(err, ErrJournalFailed) {
				t.Fatalf("Close: %v, want ErrJournalFailed", err)
			}
		})
	}
}

// TestSyncDirReportsErrors: a directory that cannot be opened is an
// error, not a silently skipped sync.
func TestSyncDirReportsErrors(t *testing.T) {
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir on a directory: %v", err)
	}
	if err := syncDir(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("syncDir on a missing directory: %v, want fs.ErrNotExist", err)
	}
}

// frameRecordReference is the framing writeRecord replaced: the payload
// assembled in one buffer, then copied again behind its length and CRC.
// It pins the on-disk bytes.
func frameRecordReference(rec Record) []byte {
	payload := []byte{byte(rec.Type)}
	payload = binary.AppendVarint(payload, rec.Epoch)
	payload = binary.AppendVarint(payload, rec.Step)
	payload = binary.AppendUvarint(payload, uint64(len(rec.Fingerprint)))
	payload = append(payload, rec.Fingerprint...)
	payload = binary.AppendUvarint(payload, uint64(len(rec.Body)))
	payload = append(payload, rec.Body...)
	framed := binary.AppendUvarint(nil, uint64(len(payload)))
	framed = binary.LittleEndian.AppendUint32(framed, crc32.ChecksumIEEE(payload))
	return append(framed, payload...)
}

// TestWriteRecordMatchesReference: writing the body apart from its frame
// leaves the journal's bytes as they were, for every record type and for
// bodies past the varint and CRC-table boundaries.
func TestWriteRecordMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	body := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for i, rec := range []Record{
		{Type: RecStepDone, Epoch: -1, Step: 0},
		{Type: RecStepDone, Epoch: 1 << 40, Step: 1<<31 + 5},
		{Type: RecPlanCommit, Epoch: -1 << 50, Fingerprint: "4dfa00afd38ba0ed"},
		{Type: RecPlanAbort, Epoch: 3, Fingerprint: string(body(200))},
		{Type: RecPlanBegin, Epoch: 7, Fingerprint: "471d8a90b8f522e7", Body: body(127)},
		{Type: RecSnapshot, Epoch: -1, Fingerprint: "x", Body: body(1<<16 + 3)},
	} {
		var buf bytes.Buffer
		n, err := writeRecord(&buf, rec)
		if err != nil {
			t.Fatal(err)
		}
		want := frameRecordReference(rec)
		if !bytes.Equal(buf.Bytes(), want) || n != len(want) {
			t.Fatalf("record %d: wrote %d bytes (reported %d), reference %d; equal=%v",
				i, buf.Len(), n, len(want), bytes.Equal(buf.Bytes(), want))
		}
	}
}
