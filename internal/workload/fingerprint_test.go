package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// TestFingerprintHashMatchesFNV: Word and Text advance the state exactly
// as hash/fnv's New64a fed the same little-endian words and bytes.
func TestFingerprintHashMatchesFNV(t *testing.T) {
	ref := fnv.New64a()
	h := fnvOffset64
	for _, v := range []int64{0, 1, -1, 0x6d637373, 1 << 62, -1 << 63} {
		ref.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
		h = h.Word(v)
		if uint64(h) != ref.Sum64() {
			t.Fatalf("after Word(%d): %x, hash/fnv %x", v, uint64(h), ref.Sum64())
		}
	}
	for _, s := range []string{"", "c3.large", "\xff\x00é"} {
		ref.Write([]byte(s))
		h = h.Text(s)
		if uint64(h) != ref.Sum64() {
			t.Fatalf("after Text(%q): %x, hash/fnv %x", s, uint64(h), ref.Sum64())
		}
	}
}

// TestFingerprintPrefix: the prefix covers rates and interests but not
// names or region tags, and a WithRegions copy computes its own.
func TestFingerprintPrefix(t *testing.T) {
	build := func(rate int64) *Workload {
		b := NewBuilder().AddTopic("a", rate).AddTopic("b", 3)
		b.AddSubscription("u", "a")
		b.AddSubscription("u", "b")
		b.AddSubscription("v", "b")
		w, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := build(5)
	p := w.FingerprintPrefix()
	if w.FingerprintPrefix() != p {
		t.Fatal("prefix not stable")
	}
	if build(6).FingerprintPrefix() == p {
		t.Fatal("rate change did not move the prefix")
	}
	unnamed, err := FromCSR(w.Rates(), []int64{0, 2, 3}, []TopicID{0, 1, 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unnamed.FingerprintPrefix() != p {
		t.Fatal("names moved the prefix")
	}
	tagged, err := w.WithRegions([]int32{1, 0}, []int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if tagged.FingerprintPrefix() != p {
		t.Fatal("region tags moved the prefix")
	}
	var empty Workload
	want := fnvOffset64.Word(fingerprintTag).Word(0).Word(0).Word(0)
	if empty.FingerprintPrefix() != want {
		t.Fatal("empty workload prefix is not the tag and three zero counts")
	}
}
