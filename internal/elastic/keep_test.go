package elastic

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// keepWithTopUpReference is the map-and-comparator keepWithTopUp the rank
// ordered one replaces: kept pairs in a map, and each needy subscriber's
// unplaced interests sorted by (rate, ID) with sort.Slice.
func keepWithTopUpReference(prev *core.Allocation, w *workload.Workload, cfg core.Config, solveFleet, trueFleet pricing.Fleet) (*core.Allocation, int64, bool) {
	msg := cfg.MessageBytes
	out := &core.Allocation{
		VMs:          make([]*core.VM, len(prev.VMs)),
		Fleet:        prev.Fleet,
		MessageBytes: msg,
	}
	delivered := make([]int64, w.NumSubscribers())
	placed := make(map[workload.Pair]bool)

	for i, vm := range prev.VMs {
		nv := &core.VM{
			ID:                   vm.ID,
			Instance:             vm.Instance,
			CapacityBytesPerHour: vm.CapacityBytesPerHour,
			Placements:           make([]core.TopicPlacement, 0, len(vm.Placements)),
		}
		for _, p := range vm.Placements {
			if int(p.Topic) >= w.NumTopics() {
				return nil, 0, false
			}
			subs := make([]workload.SubID, 0, len(p.Subs))
			for _, v := range p.Subs {
				if follows(w, v, p.Topic) {
					subs = append(subs, v)
				}
			}
			if len(subs) == 0 {
				continue
			}
			rb := w.Rate(p.Topic) * msg
			nv.Placements = append(nv.Placements, core.TopicPlacement{Topic: p.Topic, Subs: subs})
			nv.InBytesPerHour += rb
			nv.OutBytesPerHour += rb * int64(len(subs))
			for _, v := range subs {
				if int(v) < len(delivered) {
					delivered[v] += w.Rate(p.Topic)
				}
				placed[workload.Pair{Topic: p.Topic, Sub: v}] = true
			}
		}
		if nv.BytesPerHour() > trueCapacity(nv, trueFleet) {
			return nil, 0, false
		}
		out.VMs[i] = nv
	}

	rh := core.NewRehomer(out, solveFleet)
	var added int64
	var cands []workload.TopicID
	for v := 0; v < w.NumSubscribers(); v++ {
		id := workload.SubID(v)
		need := w.TauV(id, cfg.Tau) - delivered[v]
		if need <= 0 {
			continue
		}
		cands = cands[:0]
		for _, t := range w.Topics(id) {
			if !placed[workload.Pair{Topic: t, Sub: id}] {
				cands = append(cands, t)
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			ri, rj := w.Rate(cands[i]), w.Rate(cands[j])
			if ri != rj {
				return ri < rj
			}
			return cands[i] < cands[j]
		})
		for need > 0 {
			if len(cands) == 0 {
				return nil, 0, false
			}
			i := sort.Search(len(cands), func(i int) bool { return w.Rate(cands[i]) > need })
			if i > 0 {
				i--
			}
			t := cands[i]
			cands = append(cands[:i], cands[i+1:]...)
			if _, ok := rh.PlacePair(t, id, w.Rate(t)*msg); !ok {
				return nil, 0, false
			}
			placed[workload.Pair{Topic: t, Sub: id}] = true
			delivered[v] += w.Rate(t)
			need -= w.Rate(t)
			added++
		}
	}
	return out, added, true
}

// keepCase is one randomized keep: an allocation solved for a base
// workload and the next snapshot it is kept under.
type keepCase struct {
	prev                  *core.Allocation
	next                  *workload.Workload
	cfg                   core.Config
	solveFleet, trueFleet pricing.Fleet
}

// randomKeepCase solves a small workload whose rates come from a narrow
// range (so rate ties are common), then draws the next snapshot: rates
// fall (top-ups) or rise (true-capacity overshoot), some interests are
// dropped (pruned pairs) or added, the topic range sometimes shrinks below
// placed topics, and a topic too hot for any fleet type sometimes becomes a
// needy subscriber's only candidate (a refused placement).
func randomKeepCase(t *testing.T, rng *rand.Rand) keepCase {
	t.Helper()
	numT, numV := 4+rng.Intn(20), 5+rng.Intn(40)
	maxRate := int64(1 + rng.Intn(12))
	if rng.Intn(4) == 0 {
		maxRate = 200
	}
	rates := make([]int64, numT)
	for i := range rates {
		rates[i] = 1 + rng.Int63n(maxRate)
	}
	interests := make([][]workload.TopicID, numV)
	for v := range interests {
		for _, tp := range rng.Perm(numT)[:1+rng.Intn(min(numT, 10))] {
			interests[v] = append(interests[v], workload.TopicID(tp))
		}
	}
	w0 := csrWorkload(t, rates, interests)

	const msg = 1
	var out int64
	for v := range interests {
		for _, tp := range interests[v] {
			out += rates[tp] * msg
		}
	}
	bpm := max(out/(4*pricing.C3Large.LinkMbps), 4*maxRate*msg/pricing.C3Large.LinkMbps+1)
	trueFleet := pricing.CatalogFleet().WithBytesPerMbps(bpm)
	solveFleet := trueFleet.WithCapacityScale(0.85)
	taus := []int64{1, 5, 20, 100, 1000}
	cfg := core.Config{
		Tau:          taus[rng.Intn(len(taus))],
		MessageBytes: msg,
		Model:        pricing.NewModel(pricing.C3Large),
		Fleet:        solveFleet,
		Stage1:       core.Stage1Greedy,
		Stage2:       core.Stage2Custom,
		Opts:         core.OptAll,
	}
	res, err := core.Solve(w0, cfg)
	if err != nil {
		t.Fatal(err)
	}

	next := slices.Clone(rates)
	switch rng.Intn(5) {
	case 0: // rising: some VMs overshoot their true capacity
		for i := range next {
			next[i] = next[i] * int64(1+rng.Intn(3))
		}
	default: // falling, often onto a few shared values
		for i := range next {
			next[i] = max(1, next[i]*int64(1+rng.Intn(4))/4)
			if rng.Intn(2) == 0 {
				next[i] = 1 + next[i]%3
			}
		}
	}
	nextInterests := make([][]workload.TopicID, numV)
	for v, ts := range interests {
		for _, tp := range ts {
			if rng.Intn(6) != 0 { // ~1 in 6 placed pairs is unfollowed
				nextInterests[v] = append(nextInterests[v], tp)
			}
		}
		for _, tp := range rng.Perm(numT)[:rng.Intn(3)] {
			if !slices.Contains(nextInterests[v], workload.TopicID(tp)) {
				nextInterests[v] = append(nextInterests[v], workload.TopicID(tp))
			}
		}
	}
	if rng.Intn(8) == 0 { // shrink the topic range below placed topics
		keep := max(1, numT-1-rng.Intn(3))
		next = next[:keep]
		for v, ts := range nextInterests {
			nextInterests[v] = slices.DeleteFunc(ts, func(tp workload.TopicID) bool { return int(tp) >= keep })
		}
	}
	if rng.Intn(5) == 0 { // a topic no fleet type can host
		hot := workload.TopicID(len(next))
		next = append(next, trueFleet.MaxCapacity())
		for v := range nextInterests {
			if rng.Intn(3) == 0 {
				nextInterests[v] = append(nextInterests[v], hot)
			}
		}
	}
	return keepCase{
		prev: res.Allocation, next: csrWorkload(t, next, nextInterests),
		cfg: cfg, solveFleet: solveFleet, trueFleet: trueFleet,
	}
}

// csrWorkload builds a workload from per-subscriber interest lists.
func csrWorkload(t *testing.T, rates []int64, interests [][]workload.TopicID) *workload.Workload {
	t.Helper()
	off := []int64{0}
	var topics []workload.TopicID
	for _, ts := range interests {
		ts = slices.Clone(ts)
		slices.Sort(ts)
		topics = append(topics, ts...)
		off = append(off, int64(len(topics)))
	}
	w, err := workload.FromCSR(rates, off, topics, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// cloneAllocation deep-copies an allocation's VMs and placements.
func cloneAllocation(a *core.Allocation) []*core.VM {
	vms := make([]*core.VM, len(a.VMs))
	for i, vm := range a.VMs {
		c := *vm
		c.Placements = make([]core.TopicPlacement, len(vm.Placements))
		for j, p := range vm.Placements {
			c.Placements[j] = core.TopicPlacement{Topic: p.Topic, Subs: slices.Clone(p.Subs)}
		}
		vms[i] = &c
	}
	return vms
}

// TestKeepWithTopUpMatchesReference holds keepWithTopUp to the map-based
// reference on randomized keeps: the same allocation (deep-equal, VM by
// VM and placement by placement), the same added count and the same ok,
// with the previous allocation left untouched by both.
func TestKeepWithTopUpMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var rejected, toppedUp, multiPick int
	for c := 0; c < 600; c++ {
		kc := randomKeepCase(t, rng)
		before := cloneAllocation(kc.prev)
		got, gotAdded, gotOK := keepWithTopUp(kc.prev, kc.next, kc.cfg, kc.solveFleet, kc.trueFleet)
		want, wantAdded, wantOK := keepWithTopUpReference(kc.prev, kc.next, kc.cfg, kc.solveFleet, kc.trueFleet)
		if gotOK != wantOK || gotAdded != wantAdded {
			t.Fatalf("case %d: (added %d, ok %v), reference (added %d, ok %v)", c, gotAdded, gotOK, wantAdded, wantOK)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: allocation differs from the reference", c)
		}
		if !reflect.DeepEqual(kc.prev.VMs, before) {
			t.Fatalf("case %d: the previous allocation was modified", c)
		}
		switch {
		case !gotOK:
			rejected++
		case gotAdded > 0:
			toppedUp++
			if gotAdded > int64(kc.next.NumSubscribers()) {
				multiPick++
			}
		}
	}
	t.Logf("%d rejected, %d topped up (%d adding more pairs than subscribers)", rejected, toppedUp, multiPick)
	if rejected == 0 || toppedUp == 0 || multiPick == 0 {
		t.Fatalf("cases do not cover rejection, top-up and multi-pick: %d/%d/%d", rejected, toppedUp, multiPick)
	}
}

// TestKeepWithTopUpRejections pins each ok=false path of keepWithTopUp
// and its reference on a hand-built case.
func TestKeepWithTopUpRejections(t *testing.T) {
	// Two topics of rate 10, one subscriber following both, τ = 15; the
	// kept allocation serves topic 0 on a VM with room for 40 bytes/hour.
	fleet := pricing.CatalogFleet().WithBytesPerMbps(1)
	small := fleet.Type(0)
	cfg := core.Config{Tau: 15, MessageBytes: 1, Model: pricing.NewModel(pricing.C3Large), Fleet: fleet}
	prev := func(topic workload.TopicID) *core.Allocation {
		return &core.Allocation{Fleet: fleet, MessageBytes: 1, VMs: []*core.VM{{
			Instance: small, CapacityBytesPerHour: fleet.Capacity(0),
			Placements: []core.TopicPlacement{{Topic: topic, Subs: []workload.SubID{0}}},
		}}}
	}
	cases := []struct {
		name  string
		prev  *core.Allocation
		rates []int64
	}{
		{"placed topic out of range", prev(2), []int64{10, 10}},
		{"true capacity overshoot", prev(0), []int64{fleet.Capacity(0), 10}},
		{"no fleet type fits the pick", prev(0), []int64{10, fleet.MaxCapacity()}},
	}
	for _, tc := range cases {
		w := csrWorkload(t, tc.rates, [][]workload.TopicID{{0, 1}})
		if _, _, ok := keepWithTopUp(tc.prev, w, cfg, fleet, fleet); ok {
			t.Errorf("%s: kept", tc.name)
		}
		if _, _, ok := keepWithTopUpReference(tc.prev, w, cfg, fleet, fleet); ok {
			t.Errorf("%s: reference kept", tc.name)
		}
	}
	// With every interest placed, τ_v = min(τ, demand) is always met, so
	// "interests exhausted" is reachable only through the pick itself.
	if _, _, ok := pickMinimalOvershoot(nil, nil, 1); ok {
		t.Error("pickMinimalOvershoot picked from no candidates")
	}
}

// TestPickMinimalOvershootTies checks the tie rules on equal rates: the
// largest rate ≤ need takes the highest ID, and when every rate exceeds
// need the smallest rate takes the lowest ID.
func TestPickMinimalOvershootTies(t *testing.T) {
	// Ranks 0..4 over topics with rates 2, 2, 5, 5, 5 (IDs ascending
	// within a rate, as keepWithTopUp's rank order lays them out).
	rankRate := []int64{2, 2, 5, 5, 5}
	for _, tc := range []struct {
		need int64
		want int32
	}{{1, 0}, {2, 1}, {4, 1}, {5, 4}, {99, 4}} {
		got, rest, ok := pickMinimalOvershoot(rankRate, []int32{0, 1, 2, 3, 4}, tc.need)
		if !ok || got != tc.want || len(rest) != 4 || slices.Contains(rest, got) {
			t.Errorf("need %d: picked rank %d (ok %v, rest %v), want %d", tc.need, got, ok, rest, tc.want)
		}
	}
}
