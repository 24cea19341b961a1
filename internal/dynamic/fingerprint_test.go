package dynamic

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// stateFingerprintReference is StateFingerprint as it was before the
// workload section was memoized: the whole state re-hashed through
// hash/fnv on every call. It is the oracle the memoized fingerprint must
// match bit for bit.
func stateFingerprintReference(w *workload.Workload, alloc *core.Allocation) string {
	h := fnv.New64a()
	buf := make([]byte, 8)
	wr := func(vs ...int64) {
		for _, v := range vs {
			for i := 0; i < 8; i++ {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf)
		}
	}
	wr(int64(0x6d637373)) // domain tag
	if w != nil {
		wr(int64(w.NumTopics()), int64(w.NumSubscribers()), w.NumPairs())
		for _, r := range w.Rates() {
			wr(r)
		}
		for v := 0; v < w.NumSubscribers(); v++ {
			ts := w.Topics(workload.SubID(v))
			wr(int64(len(ts)))
			for _, t := range ts {
				wr(int64(t))
			}
		}
	} else {
		wr(0, 0, 0)
	}
	if alloc != nil {
		wr(int64(len(alloc.VMs)))
		var subs []workload.SubID
		for _, vm := range alloc.VMs {
			h.Write([]byte(vm.Instance.Name))
			wr(int64(vm.Instance.HourlyRate), vm.Instance.LinkMbps, vm.CapacityBytesPerHour, int64(len(vm.Placements)))
			// Placement list order and subscriber order within a
			// placement are incidental (different packers and replayed
			// steps produce different orders for the same state), so the
			// hash canonicalizes both: topics ascending, subs ascending.
			order := make([]int, len(vm.Placements))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool {
				return vm.Placements[order[a]].Topic < vm.Placements[order[b]].Topic
			})
			for _, pi := range order {
				p := vm.Placements[pi]
				subs = append(subs[:0], p.Subs...)
				sort.Slice(subs, func(a, b int) bool { return subs[a] < subs[b] })
				wr(int64(p.Topic), int64(len(subs)))
				for _, s := range subs {
					wr(int64(s))
				}
			}
		}
	} else {
		wr(0)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// migrationBetweenReference is migrationBetween as it was before the
// sort-merge: one map from pair to first host per side. It is the oracle
// for the map-free version's counts.
func migrationBetweenReference(before, after *core.Allocation) MigrationStats {
	type key struct {
		t workload.TopicID
		v workload.SubID
	}
	host := func(a *core.Allocation) map[key]int {
		m := make(map[key]int)
		for i, vm := range a.VMs {
			for _, p := range vm.Placements {
				for _, v := range p.Subs {
					k := key{p.Topic, v}
					if _, ok := m[k]; !ok {
						m[k] = i
					}
				}
			}
		}
		return m
	}
	hb, ha := host(before), host(after)
	var stats MigrationStats
	for k, vm := range ha {
		if old, ok := hb[k]; ok && old == vm {
			stats.PairsKept++
		} else {
			stats.PairsMoved++
		}
		delete(hb, k)
	}
	// Pairs present before but dropped now also count as moved.
	stats.PairsMoved += int64(len(hb))
	return stats
}

// mutateAllocation returns a deep copy of a with random incidental and
// real changes: placement lists and subscriber lists shuffled, pairs
// moved to other VMs, pairs dropped, a topic listed twice on one VM, a
// pair placed on two VMs, and VMs added or dropped.
func mutateAllocation(rng *rand.Rand, a *core.Allocation) *core.Allocation {
	out := &core.Allocation{Fleet: a.Fleet, MessageBytes: a.MessageBytes}
	for _, vm := range a.VMs {
		nv := *vm
		nv.Placements = nil
		for _, p := range vm.Placements {
			subs := append([]workload.SubID(nil), p.Subs...)
			nv.Placements = append(nv.Placements, core.TopicPlacement{Topic: p.Topic, Subs: subs})
		}
		out.VMs = append(out.VMs, &nv)
	}
	if len(out.VMs) == 0 {
		return out
	}
	pickVM := func() *core.VM { return out.VMs[rng.Intn(len(out.VMs))] }
	for n := rng.Intn(6); n > 0; n-- {
		vm := pickVM()
		switch rng.Intn(8) {
		case 0:
			rng.Shuffle(len(vm.Placements), func(i, j int) { vm.Placements[i], vm.Placements[j] = vm.Placements[j], vm.Placements[i] })
		case 1:
			for _, p := range vm.Placements {
				rng.Shuffle(len(p.Subs), func(i, j int) { p.Subs[i], p.Subs[j] = p.Subs[j], p.Subs[i] })
			}
		case 2: // move one pair to another VM
			if len(vm.Placements) == 0 {
				continue
			}
			p := &vm.Placements[rng.Intn(len(vm.Placements))]
			if len(p.Subs) == 0 {
				continue
			}
			i := rng.Intn(len(p.Subs))
			v := p.Subs[i]
			p.Subs = append(p.Subs[:i], p.Subs[i+1:]...)
			dst := pickVM()
			dst.Placements = append(dst.Placements, core.TopicPlacement{Topic: p.Topic, Subs: []workload.SubID{v}})
		case 3: // drop a pair
			if len(vm.Placements) == 0 {
				continue
			}
			p := &vm.Placements[rng.Intn(len(vm.Placements))]
			if len(p.Subs) > 0 {
				p.Subs = p.Subs[1:]
			}
		case 4: // the same topic twice on one VM (ties in the canonical sort)
			if len(vm.Placements) == 0 {
				continue
			}
			p := vm.Placements[rng.Intn(len(vm.Placements))]
			vm.Placements = append(vm.Placements, core.TopicPlacement{Topic: p.Topic, Subs: append([]workload.SubID(nil), p.Subs...)})
		case 5: // the same pair on a second VM
			if len(vm.Placements) == 0 {
				continue
			}
			p := vm.Placements[rng.Intn(len(vm.Placements))]
			dst := pickVM()
			dst.Placements = append(dst.Placements, core.TopicPlacement{Topic: p.Topic, Subs: append([]workload.SubID(nil), p.Subs...)})
		case 6:
			out.VMs = append(out.VMs, &core.VM{ID: len(out.VMs), Instance: pricing.C3XLarge, CapacityBytesPerHour: 7})
		case 7:
			if len(out.VMs) > 1 {
				i := rng.Intn(len(out.VMs))
				out.VMs = append(out.VMs[:i], out.VMs[i+1:]...)
			}
		}
	}
	return out
}

// TestStateFingerprintMatchesReference runs apply sequences — incremental
// updates adopted one after another, their plans' steps replayed, and
// random rewrites of each allocation — through the memoized fingerprint
// and the reference. Every allocation of a sequence is hashed under the
// same *Workload, so all but the first call per workload hit the memo.
func TestStateFingerprintMatchesReference(t *testing.T) {
	check := func(w *workload.Workload, a *core.Allocation) {
		t.Helper()
		if got, want := StateFingerprint(w, a), stateFingerprintReference(w, a); got != want {
			t.Fatalf("fingerprint %s, reference %s", got, want)
		}
	}
	check(nil, nil)
	check(&workload.Workload{}, &core.Allocation{})
	check(nil, &core.Allocation{VMs: []*core.VM{{Instance: pricing.C3Large}}})

	cfg := stepsTestConfig()
	rng := rand.New(rand.NewSource(3))
	for seed := int64(1); seed <= 4; seed++ {
		w := stepsTestWorkload(t, seed)
		prov, err := New(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(w, nil)
		for epoch := 0; epoch < 6; epoch++ {
			before, bw := prov.Allocation(), prov.Workload()
			check(bw, before)
			for i := 0; i < 5; i++ {
				check(bw, mutateAllocation(rng, before))
			}
			if _, err := prov.UpdateIncremental(context.Background(), randomDelta(rng, bw, 0.1, true)); err != nil {
				t.Fatal(err)
			}
			after, aw := prov.Allocation(), prov.Workload()
			// Replaying the epoch's steps prefix by prefix: every
			// intermediate allocation is hashed under the target workload.
			steps := StepsBetween(before, after)
			r, err := NewReplayer(before, aw, cfg.MessageBytes)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range steps {
				if err := r.Apply(s); err != nil {
					t.Fatal(err)
				}
				if i%7 == 0 && s.Op != OpRetireVM && s.Op != OpBootVM {
					if mid, err := r.Finish(); err == nil {
						check(aw, mid)
					}
				}
			}
			replayed, err := r.Finish()
			if err != nil {
				t.Fatal(err)
			}
			check(aw, replayed)
			check(aw, after)
			if StateFingerprint(aw, replayed) != StateFingerprint(aw, after) {
				t.Fatal("replayed steps do not reproduce the adopted state")
			}
		}
	}
}

// TestStateFingerprintConcurrentFirstUse hashes one fresh workload from
// many goroutines at once, each with its own allocation: the memo's first
// computation races its readers (run under -race), and every result must
// still match the reference.
func TestStateFingerprintConcurrentFirstUse(t *testing.T) {
	cfg := stepsTestConfig()
	w := stepsTestWorkload(t, 11)
	res, err := core.Solve(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	allocs := make([]*core.Allocation, 8)
	want := make([]string, len(allocs))
	for i := range allocs {
		allocs[i] = mutateAllocation(rng, res.Allocation)
		want[i] = stateFingerprintReference(w, allocs[i])
	}
	fresh, err := workload.FromCSR(w.Rates(), csrOffsets(w), csrTopics(w), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]string, len(allocs))
	for i := range allocs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = StateFingerprint(fresh, allocs[i])
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("goroutine %d: fingerprint %s, reference %s", i, got[i], want[i])
		}
	}
}

func csrOffsets(w *workload.Workload) []int64 {
	off := []int64{0}
	for v := 0; v < w.NumSubscribers(); v++ {
		off = append(off, off[v]+int64(w.Followings(workload.SubID(v))))
	}
	return off
}

func csrTopics(w *workload.Workload) []workload.TopicID {
	var ts []workload.TopicID
	for v := 0; v < w.NumSubscribers(); v++ {
		ts = append(ts, w.Topics(workload.SubID(v))...)
	}
	return ts
}

// TestPropertyMigrationBetweenMatchesReference compares the map-free
// migration counts with the map reference on random allocation pairs over
// small ID ranges, so pairs collide often: the same pair on several VMs
// ("first host wins"), a topic split across VMs, a topic listed twice on
// one VM, duplicate subscribers in one placement, empty VMs, and negative
// IDs (which only the packing's unsigned view distinguishes).
func TestPropertyMigrationBetweenMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	randomAlloc := func() *core.Allocation {
		a := &core.Allocation{}
		for i := rng.Intn(6); i > 0; i-- {
			vm := &core.VM{ID: len(a.VMs)}
			for j := rng.Intn(5); j > 0; j-- {
				p := core.TopicPlacement{Topic: workload.TopicID(rng.Intn(8) - 2)}
				for k := rng.Intn(6); k > 0; k-- {
					p.Subs = append(p.Subs, workload.SubID(rng.Intn(10)-2))
				}
				vm.Placements = append(vm.Placements, p)
			}
			a.VMs = append(a.VMs, vm)
		}
		return a
	}
	for i := 0; i < 5000; i++ {
		before, after := randomAlloc(), randomAlloc()
		if rng.Intn(4) == 0 {
			after = mutateAllocation(rng, before)
		}
		got, want := migrationBetween(before, after), migrationBetweenReference(before, after)
		if got != want {
			t.Fatalf("case %d: moved/kept %d/%d, reference %d/%d\nbefore %s\nafter  %s",
				i, got.PairsMoved, got.PairsKept, want.PairsMoved, want.PairsKept, dumpAlloc(before), dumpAlloc(after))
		}
	}
	if s := migrationBetween(nil, nil); s != (MigrationStats{}) {
		t.Fatalf("nil allocations: %+v", s)
	}
}

func dumpAlloc(a *core.Allocation) string {
	s := ""
	for i, vm := range a.VMs {
		s += fmt.Sprintf("vm%d:", i)
		for _, p := range vm.Placements {
			s += fmt.Sprintf(" t%d%v", p.Topic, p.Subs)
		}
		s += "; "
	}
	return s
}
