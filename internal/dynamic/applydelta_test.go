package dynamic

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// applyDeltaReference is the straightforward rebuild the CSR merge in
// applyDelta replaces: every subscriber's interests become a set, the
// delta's pairs are added and removed, and each row is sorted back out.
func applyDeltaReference(w *workload.Workload, d Delta) (*workload.Workload, error) {
	if err := d.Validate(w.NumTopics(), w.NumSubscribers()); err != nil {
		return nil, err
	}
	numT := w.NumTopics() + len(d.NewTopics)
	numV := w.NumSubscribers() + d.NewSubscribers

	rates := make([]int64, numT)
	copy(rates, w.Rates())
	copy(rates[w.NumTopics():], d.NewTopics)
	for t, r := range d.RateChanges {
		rates[t] = r
	}

	interests := make([]map[workload.TopicID]bool, numV)
	for v := 0; v < w.NumSubscribers(); v++ {
		set := make(map[workload.TopicID]bool, w.Followings(workload.SubID(v)))
		for _, t := range w.Topics(workload.SubID(v)) {
			set[t] = true
		}
		interests[v] = set
	}
	for v := w.NumSubscribers(); v < numV; v++ {
		interests[v] = make(map[workload.TopicID]bool)
	}
	for _, pr := range d.Subscribe {
		interests[pr.Sub][pr.Topic] = true
	}
	for _, pr := range d.Unsubscribe {
		delete(interests[pr.Sub], pr.Topic)
	}

	subOff := make([]int64, 1, numV+1)
	var subTopics []workload.TopicID
	for _, set := range interests {
		start := len(subTopics)
		for t := range set {
			subTopics = append(subTopics, t)
		}
		seg := subTopics[start:]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		subOff = append(subOff, int64(len(subTopics)))
	}
	return workload.FromCSR(rates, subOff, subTopics, nil, nil)
}

// sortPairs orders pairs subscriber-major then topic — the canonical order
// the tests compare deltas in.
func sortPairs(ps []workload.Pair) {
	slices.SortFunc(ps, func(a, b workload.Pair) int {
		if a.Sub != b.Sub {
			return int(a.Sub) - int(b.Sub)
		}
		return int(a.Topic) - int(b.Topic)
	})
}

// sameWorkload reports the first difference between two workloads' rates
// and both CSRs (subscriber → topics and topic → subscribers), or "".
func sameWorkload(got, want *workload.Workload) string {
	if got.NumTopics() != want.NumTopics() || got.NumSubscribers() != want.NumSubscribers() {
		return "shape differs"
	}
	if !slices.Equal(got.Rates(), want.Rates()) {
		return "rates differ"
	}
	for v := 0; v < want.NumSubscribers(); v++ {
		if !slices.Equal(got.Topics(workload.SubID(v)), want.Topics(workload.SubID(v))) {
			return "subscriber rows differ"
		}
	}
	// GSP's transposition relies on Subscribers(t) ascending in SubID.
	for t := 0; t < want.NumTopics(); t++ {
		if !slices.Equal(got.Subscribers(workload.TopicID(t)), want.Subscribers(workload.TopicID(t))) {
			return "topic rows differ"
		}
	}
	return ""
}

// TestApplyDeltaMatchesReference pins the CSR merge byte-identical to the
// map-based reference across randomized deltas, including growth,
// re-subscribes of existing interests, and unsubscribes of absent pairs.
func TestApplyDeltaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for c := 0; c < 200; c++ {
		w, err := tracegen.Random(tracegen.RandomConfig{
			Topics:        5 + rng.Intn(15),
			Subscribers:   10 + rng.Intn(40),
			MaxFollowings: 1 + rng.Intn(5),
			MaxRate:       60,
			Seed:          int64(c),
		})
		if err != nil {
			t.Fatal(err)
		}
		d := randomDelta(rng, w, 0.3, true)
		// Unsubscribes of absent-but-in-range pairs are documented no-ops;
		// splice some in (avoiding pairs the delta already names).
		named := make(map[workload.Pair]bool)
		for _, pr := range d.Subscribe {
			named[pr] = true
		}
		for _, pr := range d.Unsubscribe {
			named[pr] = true
		}
		for tries := 0; tries < 10; tries++ {
			pr := workload.Pair{
				Topic: workload.TopicID(rng.Intn(w.NumTopics())),
				Sub:   workload.SubID(rng.Intn(w.NumSubscribers())),
			}
			if !named[pr] && !hasTopic(w.Topics(pr.Sub), pr.Topic) {
				named[pr] = true
				d.Unsubscribe = append(d.Unsubscribe, pr)
				break
			}
		}
		sortPairs(d.Unsubscribe)

		want, err := applyDeltaReference(w, d)
		if err != nil {
			t.Fatalf("case %d: applyDeltaReference: %v", c, err)
		}
		got, err := applyDelta(w, d)
		if err != nil {
			t.Fatalf("case %d: applyDelta: %v", c, err)
		}
		if diff := sameWorkload(got, want); diff != "" {
			t.Fatalf("case %d: %s", c, diff)
		}
	}
}

// fuzzDelta decodes a tiny workload (1–6 topics and subscribers, one
// interest bitmask byte per subscriber) and a delta from data. The delta's
// operations come three bytes at a time and may be invalid on purpose:
// non-positive rates, out-of-range and negative references, duplicate and
// conflicting pairs, a negative subscriber count.
func fuzzDelta(data []byte) (*workload.Workload, Delta, error) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	numT, numV := 1+int(next()%6), 1+int(next()%6)
	rates := make([]int64, numT)
	for t := range rates {
		rates[t] = 1 + int64(next()%50)
	}
	subOff := []int64{0}
	var subTopics []workload.TopicID
	for v := 0; v < numV; v++ {
		mask := next()
		for t := 0; t < numT; t++ {
			if mask&(1<<t) != 0 {
				subTopics = append(subTopics, workload.TopicID(t))
			}
		}
		subOff = append(subOff, int64(len(subTopics)))
	}
	w, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil {
		return nil, Delta{}, err
	}
	var d Delta
	pair := func(a, b byte) workload.Pair {
		return workload.Pair{
			Topic: workload.TopicID(int(a)%(numT+4) - 1),
			Sub:   workload.SubID(int(b)%(numV+4) - 1),
		}
	}
	for len(data) >= 3 {
		op, a, b := next(), next(), next()
		switch op % 6 {
		case 0:
			d.NewTopics = append(d.NewTopics, int64(int8(a)))
		case 1:
			d.NewSubscribers += int(a%3) - int(b%2)
		case 2:
			if d.RateChanges == nil {
				d.RateChanges = make(map[workload.TopicID]int64)
			}
			d.RateChanges[workload.TopicID(int(a)%(numT+4)-1)] = int64(int8(b))
		case 3, 4:
			d.Subscribe = append(d.Subscribe, pair(a, b))
		case 5:
			d.Unsubscribe = append(d.Unsubscribe, pair(a, b))
		}
	}
	return w, d, nil
}

// FuzzApplyDelta checks the CSR merge against the map-based reference on
// fuzzer-built workloads and deltas: the same error, or the same rates and
// CSRs in both directions.
func FuzzApplyDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		w, d, err := fuzzDelta(data)
		if err != nil {
			t.Skip(err)
		}
		want, wantErr := applyDeltaReference(w, d)
		got, gotErr := applyDelta(w, d)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("errors differ: %v vs reference %v", gotErr, wantErr)
		}
		if wantErr != nil {
			typed := false
			for _, e := range []error{ErrNegativeRate, ErrDuplicatePair, ErrUnknownReference, ErrBadDelta} {
				typed = typed || errors.Is(wantErr, e)
			}
			if !typed {
				t.Fatalf("reference error %v wraps no typed error", wantErr)
			}
			// Validate walks RateChanges in map order, so only a delta with
			// at most one rate change has a single first violation.
			if len(d.RateChanges) <= 1 && gotErr.Error() != wantErr.Error() {
				t.Fatalf("errors differ: %v vs reference %v", gotErr, wantErr)
			}
			return
		}
		if diff := sameWorkload(got, want); diff != "" {
			t.Fatalf("%s: got %v, want %v", diff, got.Rates(), want.Rates())
		}
	})
}
