package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// greedyReference implements the paper's Alg. 1 + Alg. 2 literally: an array
// A of benefit/cost ratios, recomputed after every pick, with argmax
// selection. Tie-break: higher ratio, then higher rate, then lower topic ID.
// It is O(d²) per subscriber and exists only to validate the fast
// GreedySelectPairs.
func greedyReference(w *workload.Workload, tau int64) *Selection {
	n := w.NumSubscribers()
	subOff := make([]int64, 1, n+1)
	var subTopics []workload.TopicID

	for v := 0; v < n; v++ {
		ts := w.Topics(workload.SubID(v))
		tauV := w.TauV(workload.SubID(v), tau)
		selected := make(map[workload.TopicID]bool, len(ts))
		var got int64
		for got < tauV {
			// Recompute benefit/cost for all unselected pairs (Alg. 1).
			// The ratio min(1, ev/rem)/(2·ev) simplifies exactly to
			// 1/(2·rem) when ev ≤ rem and 1/(2·ev) otherwise, so the
			// argmax is the argmin of the denominator — computed in
			// integer arithmetic to avoid float tie-break noise.
			best := workload.TopicID(-1)
			var bestDen, bestRate int64
			rem := tauV - got
			for _, t := range ts {
				if selected[t] {
					continue
				}
				ev := w.Rate(t)
				den := 2 * rem
				if ev > rem {
					den = 2 * ev
				}
				better := false
				switch {
				case best == -1 || den < bestDen:
					better = true
				case den == bestDen && ev > bestRate:
					better = true
				case den == bestDen && ev == bestRate && t < best:
					better = true
				}
				if better {
					best, bestDen, bestRate = t, den, ev
				}
			}
			selected[best] = true
			got += w.Rate(best)
		}
		start := len(subTopics)
		for _, t := range ts {
			if selected[t] {
				subTopics = append(subTopics, t)
			}
		}
		sortTopicIDs(subTopics[start:])
		subOff = append(subOff, int64(len(subTopics)))
	}
	return &Selection{w: w, subOff: subOff, subTopics: subTopics}
}

// gspComparatorReference is GSP as it ran before the rank-order scan: for
// each subscriber in [lo, hi), a comparator sort of its topics by (rate
// descending, ID ascending), then the same largest-fitting-first scan and
// smallest-overshoot top-off. The fast path must reproduce its CSR
// fragment byte for byte.
func gspComparatorReference(w *workload.Workload, lo, hi int, tau int64) ([]int64, []workload.TopicID) {
	type rateTopic struct {
		rate  int64
		topic workload.TopicID
	}
	subOff := []int64{0}
	var subTopics []workload.TopicID
	var scratch []rateTopic
	for v := lo; v < hi; v++ {
		scratch = scratch[:0]
		var demand int64
		for _, t := range w.Topics(workload.SubID(v)) {
			demand += w.Rate(t)
			scratch = append(scratch, rateTopic{rate: w.Rate(t), topic: t})
		}
		start := len(subTopics)
		if demand <= tau {
			for _, rt := range scratch {
				subTopics = append(subTopics, rt.topic)
			}
		} else {
			slices.SortFunc(scratch, func(a, b rateTopic) int {
				if a.rate != b.rate {
					return cmp.Compare(b.rate, a.rate)
				}
				return cmp.Compare(a.topic, b.topic)
			})
			rem := tau
			lastSkipped := -1
			for i := range scratch {
				if rem <= 0 {
					break
				}
				if scratch[i].rate <= rem {
					subTopics = append(subTopics, scratch[i].topic)
					rem -= scratch[i].rate
				} else {
					lastSkipped = i
				}
			}
			if rem > 0 {
				subTopics = append(subTopics, scratch[lastSkipped].topic)
			}
		}
		sortTopicIDs(subTopics[start:])
		subOff = append(subOff, int64(len(subTopics)))
	}
	return subOff, subTopics
}

// checkMatchesComparator reports whether a GSP fragment over [lo, hi) is
// byte-identical to gspComparatorReference's.
func checkMatchesComparator(w *workload.Workload, lo, hi int, tau int64, subOff []int64, subTopics []workload.TopicID) error {
	wantOff, wantTopics := gspComparatorReference(w, lo, hi, tau)
	if !slices.Equal(subOff, wantOff) {
		return fmt.Errorf("[%d,%d) τ=%d: subOff %v, want %v", lo, hi, tau, subOff, wantOff)
	}
	if !slices.Equal(subTopics, wantTopics) {
		return fmt.Errorf("[%d,%d) τ=%d: subTopics %v, want %v", lo, hi, tau, subTopics, wantTopics)
	}
	return nil
}

// tiedWorkload draws a workload whose rates come from a handful of values,
// so most rank decisions fall to the ID tie-break. Interest lists are left
// unsorted and some subscribers follow nothing, which FromCSR accepts.
func tiedWorkload(rng *rand.Rand) *workload.Workload {
	numT := 1 + rng.Intn(30)
	distinct := int64(1 + rng.Intn(4))
	rates := make([]int64, numT)
	for t := range rates {
		rates[t] = 1 + rng.Int63n(distinct)*(1+rng.Int63n(3))
	}
	n := 1 + rng.Intn(60)
	subOff := []int64{0}
	var subTopics []workload.TopicID
	for v := 0; v < n; v++ {
		deg := rng.Intn(numT + 1)
		for _, t := range rng.Perm(numT)[:deg] {
			subTopics = append(subTopics, workload.TopicID(t))
		}
		subOff = append(subOff, int64(len(subTopics)))
	}
	w, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil {
		panic(err)
	}
	return w
}

// maxDemand reports the largest subscriber demand, the τ beyond which GSP
// selects every pair.
func maxDemand(w *workload.Workload) int64 {
	var m int64
	for v := 0; v < w.NumSubscribers(); v++ {
		m = max(m, w.Demand(workload.SubID(v)))
	}
	return m
}

func mustWorkload(t *testing.T, rates []int64, interests [][]workload.TopicID) *workload.Workload {
	t.Helper()
	subOff := []int64{0}
	var subTopics []workload.TopicID
	for _, ts := range interests {
		subTopics = append(subTopics, ts...)
		subOff = append(subOff, int64(len(subTopics)))
	}
	w, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil {
		t.Fatalf("FromCSR: %v", err)
	}
	return w
}

func TestGSPSelectsAllWhenDemandBelowTau(t *testing.T) {
	w := mustWorkload(t, []int64{5, 3}, [][]workload.TopicID{{0, 1}})
	sel := GreedySelectPairs(w, 100)
	if got := sel.NumPairs(); got != 2 {
		t.Errorf("NumPairs = %d, want 2 (demand 8 < τ)", got)
	}
	if got := sel.SelectedRate(0); got != 8 {
		t.Errorf("SelectedRate = %d, want 8", got)
	}
}

func TestGSPLargestFittingFirst(t *testing.T) {
	// Rates 8, 6, 5; τ = 14 → pick 8 then 6, skip 5.
	w := mustWorkload(t, []int64{8, 6, 5}, [][]workload.TopicID{{0, 1, 2}})
	sel := GreedySelectPairs(w, 14)
	got := sel.SelectedTopics(0)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("selected %v, want [0 1]", got)
	}
}

func TestGSPTopOffPicksSmallestOvershoot(t *testing.T) {
	// Rates 8, 6, 5; τ = 10 → pick 8 (rem 2); nothing fits; top off with
	// the smallest remaining (5), not 6.
	w := mustWorkload(t, []int64{8, 6, 5}, [][]workload.TopicID{{0, 1, 2}})
	sel := GreedySelectPairs(w, 10)
	got := sel.SelectedTopics(0)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("selected %v, want [0 2]", got)
	}
	if rate := sel.SelectedRate(0); rate != 13 {
		t.Errorf("SelectedRate = %d, want 13", rate)
	}
}

func TestGSPSingleTopicOvershoot(t *testing.T) {
	// A subscriber whose every topic exceeds τ must still get one pair.
	w := mustWorkload(t, []int64{50, 80}, [][]workload.TopicID{{0, 1}})
	sel := GreedySelectPairs(w, 10)
	got := sel.SelectedTopics(0)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("selected %v, want [0] (cheapest overshooting topic)", got)
	}
}

func TestRSPTakesInputOrder(t *testing.T) {
	// RSP takes adjacency order (topic IDs ascending) regardless of cost.
	w := mustWorkload(t, []int64{2, 100, 3}, [][]workload.TopicID{{0, 1, 2}})
	sel := RandomSelectPairs(w, 10)
	got := sel.SelectedTopics(0)
	// Takes t0 (2), still below 10, takes t1 (100) → satisfied.
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("selected %v, want [0 1]", got)
	}
}

func TestSelectAllPairs(t *testing.T) {
	w := mustWorkload(t, []int64{1, 2}, [][]workload.TopicID{{0, 1}, {1}})
	sel := SelectAllPairs(w)
	if sel.NumPairs() != w.NumPairs() {
		t.Errorf("NumPairs = %d, want %d", sel.NumPairs(), w.NumPairs())
	}
}

func TestSelectionSatisfied(t *testing.T) {
	w := mustWorkload(t, []int64{5, 7}, [][]workload.TopicID{{0, 1}, {0}})
	sel := GreedySelectPairs(w, 6)
	if !sel.Satisfied(6) {
		t.Errorf("GSP selection not satisfied; first unsatisfied = %d", sel.FirstUnsatisfied(6))
	}
	// An empty selection is unsatisfied.
	empty := &Selection{w: w, subOff: make([]int64, w.NumSubscribers()+1)}
	if empty.Satisfied(6) {
		t.Error("empty selection reported satisfied")
	}
	if got := empty.FirstUnsatisfied(6); got != 0 {
		t.Errorf("FirstUnsatisfied = %d, want 0", got)
	}
}

func TestSelectionTopicView(t *testing.T) {
	w := mustWorkload(t, []int64{5, 7}, [][]workload.TopicID{{0, 1}, {0}})
	sel := SelectAllPairs(w)
	subs := sel.SelectedSubscribers(0)
	if len(subs) != 2 {
		t.Fatalf("topic 0 has %d selected subscribers, want 2", len(subs))
	}
	subs = sel.SelectedSubscribers(1)
	if len(subs) != 1 || subs[0] != 0 {
		t.Errorf("topic 1 selected subscribers = %v, want [0]", subs)
	}
}

func TestSelectionOutgoingRate(t *testing.T) {
	w := mustWorkload(t, []int64{5, 7}, [][]workload.TopicID{{0, 1}, {0}})
	sel := SelectAllPairs(w)
	if got := sel.OutgoingRate(); got != 17 {
		t.Errorf("OutgoingRate = %d, want 17", got)
	}
}

func randomCoreWorkload(rng *rand.Rand) *workload.Workload {
	w, err := tracegen.Random(tracegen.RandomConfig{
		Topics:        1 + rng.Intn(25),
		Subscribers:   1 + rng.Intn(40),
		MaxFollowings: 1 + rng.Intn(8),
		MaxRate:       1 + rng.Int63n(200),
		Seed:          rng.Int63(),
	})
	if err != nil {
		panic(err)
	}
	return w
}

func TestPropertyGSPMatchesReference(t *testing.T) {
	f := func(seed int64, tauRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomCoreWorkload(rng)
		tau := int64(tauRaw%500) + 1
		fast := GreedySelectPairs(w, tau)
		ref := greedyReference(w, tau)
		// The two may tie-break to different topic IDs of equal rate, but
		// per-subscriber selected rates — hence bandwidth cost — must
		// agree exactly.
		for v := 0; v < w.NumSubscribers(); v++ {
			if fast.SelectedRate(workload.SubID(v)) != ref.SelectedRate(workload.SubID(v)) {
				return false
			}
			if len(fast.SelectedTopics(workload.SubID(v))) != len(ref.SelectedTopics(workload.SubID(v))) {
				return false
			}
		}
		return fast.NumPairs() == ref.NumPairs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPropertyStage1AlwaysSatisfies(t *testing.T) {
	f := func(seed int64, tauRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomCoreWorkload(rng)
		tau := int64(tauRaw%1000) + 1
		return GreedySelectPairs(w, tau).Satisfied(tau) &&
			RandomSelectPairs(w, tau).Satisfied(tau)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPropertySelectionIsSubsetOfInterests(t *testing.T) {
	f := func(seed int64, tauRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomCoreWorkload(rng)
		tau := int64(tauRaw%300) + 1
		sel := GreedySelectPairs(w, tau)
		for v := 0; v < w.NumSubscribers(); v++ {
			interests := make(map[workload.TopicID]bool)
			for _, tt := range w.Topics(workload.SubID(v)) {
				interests[tt] = true
			}
			seen := make(map[workload.TopicID]bool)
			for _, tt := range sel.SelectedTopics(workload.SubID(v)) {
				if !interests[tt] || seen[tt] {
					return false
				}
				seen[tt] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyGSPNoLargestPairDroppable(t *testing.T) {
	// GSP can select one redundant small pair (a fitting pick that a later
	// forced overshoot makes unnecessary — inherent to the paper's greedy),
	// but dropping the *largest* selected topic must always break
	// satisfaction: the fitting picks alone sum below τ_v, and the largest
	// pick is at least as large as the overshoot top-off.
	f := func(seed int64, tauRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomCoreWorkload(rng)
		tau := int64(tauRaw%300) + 1
		sel := GreedySelectPairs(w, tau)
		for v := 0; v < w.NumSubscribers(); v++ {
			ts := sel.SelectedTopics(workload.SubID(v))
			if len(ts) == 0 {
				continue
			}
			tauV := w.TauV(workload.SubID(v), tau)
			total := sel.SelectedRate(workload.SubID(v))
			maxRate := w.Rate(ts[0])
			for _, tt := range ts[1:] {
				if r := w.Rate(tt); r > maxRate {
					maxRate = r
				}
			}
			if total-maxRate >= tauV {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGSPOutperformsRSPOnSocialWorkloads(t *testing.T) {
	// The paper's headline Stage-1 result: on heavy-tailed social
	// workloads, GSP selects substantially less bandwidth than RSP at low
	// τ. This is an empirical claim, so we test it on the synthetic
	// Twitter trace rather than as a universal property.
	cfg := tracegen.DefaultTwitterConfig().Scale(0.05)
	w, err := tracegen.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []int64{10, 100} {
		gsp := GreedySelectPairs(w, tau).OutgoingRate()
		rsp := RandomSelectPairs(w, tau).OutgoingRate()
		if gsp >= rsp {
			t.Errorf("τ=%d: GSP outgoing %d ≥ RSP %d", tau, gsp, rsp)
		}
	}
}

// The rank-order scan must reproduce the comparator sort byte for byte:
// heavy rate ties, unsorted interest lists, empty subscribers, every τ
// regime, serial and sharded.
func TestGSPMatchesComparatorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for c := 0; c < 300; c++ {
		w := tiedWorkload(rng)
		if c%2 == 1 {
			w = randomCoreWorkload(rng)
		}
		n := w.NumSubscribers()
		for _, tau := range []int64{1, 10, 100, 1000, maxDemand(w), maxDemand(w) + 1} {
			sel := GreedySelectPairs(w, tau)
			if err := checkMatchesComparator(w, 0, n, tau, sel.subOff, sel.subTopics); err != nil {
				t.Fatalf("case %d serial: %v", c, err)
			}
			for _, workers := range []int{2, 3, 5} {
				par := GreedySelectPairsParallel(w, tau, workers)
				if err := checkMatchesComparator(w, 0, n, tau, par.subOff, par.subTopics); err != nil {
					t.Fatalf("case %d workers=%d: %v", c, workers, err)
				}
			}
		}
	}
}

// Shards start mid-workload and blocks can be smaller than a subscriber's
// degree, in which case that subscriber gets a block of its own.
func TestGSPRangeMatchesComparatorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for c := 0; c < 300; c++ {
		w := tiedWorkload(rng)
		n := w.NumSubscribers()
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		rank := rankTopics(w)
		for _, block := range []int64{1, 2, 3, 7, gspBlock(w)} {
			tau := 1 + rng.Int63n(maxDemand(w)+2)
			tk := &ticker{ctx: context.Background(), left: checkInterval}
			off, topics, err := greedySelectRange(w, rank, lo, hi, tau, block, tk)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkMatchesComparator(w, lo, hi, tau, off, topics); err != nil {
				t.Fatalf("case %d block=%d: %v", c, block, err)
			}
		}
	}
}

// A subscriber following more topics than gspBlockPairs overflows the
// production block size and is transposed in a block of its own, between
// ordinary blocks on either side.
func TestGSPSubscriberLargerThanBlock(t *testing.T) {
	numT := gspBlockPairs + 1000
	rates := make([]int64, numT)
	for i := range rates {
		rates[i] = 1 + int64(i%7)
	}
	subOff := []int64{0}
	var subTopics []workload.TopicID
	for v := 0; v < 40; v++ {
		deg := 1 + v%5
		if v == 20 {
			deg = numT
		}
		for k := 0; k < deg; k++ {
			subTopics = append(subTopics, workload.TopicID((v*131+k*17)%numT))
		}
		slices.Sort(subTopics[subOff[len(subOff)-1]:])
		subTopics = slices.Compact(subTopics)
		subOff = append(subOff, int64(len(subTopics)))
	}
	w, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rank := rankTopics(w)
	for _, tau := range []int64{1, 10, 1000, w.Demand(20)} {
		tk := &ticker{ctx: context.Background(), left: checkInterval}
		off, topics, err := greedySelectRange(w, rank, 0, w.NumSubscribers(), tau, gspBlockPairs, tk)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkMatchesComparator(w, 0, w.NumSubscribers(), tau, off, topics); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzGreedySelectPairs builds tiny workloads from the fuzz input and
// checks Stage 1 against its oracles: byte identity with the comparator
// reference (serial, sharded, and on a sub-range with a tiny block),
// Satisfied(τ), and the same per-subscriber bandwidth as the paper-literal
// greedyReference.
//
// Layout: τ byte, block byte, topic count byte, one rate byte per topic,
// then per subscriber a degree byte followed by that many topic bytes.
func FuzzGreedySelectPairs(f *testing.F) {
	f.Add([]byte{10, 1, 3, 8, 6, 5, 3, 0, 1, 2})
	f.Add([]byte{0, 0, 4, 1, 1, 1, 1, 4, 3, 2, 1, 0, 2, 0, 3, 1, 1})
	f.Add([]byte{255, 3, 5, 200, 2, 2, 9, 2, 5, 0, 1, 2, 3, 4, 2, 4, 4, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		tau := 1 + int64(data[0])*3
		block := 1 + int64(data[1]%8)
		numT := 1 + int(data[2]%16)
		data = data[3:]
		if len(data) < numT {
			return
		}
		rates := make([]int64, numT)
		for i, b := range data[:numT] {
			// Mostly small rates, so ties are common; now and then a
			// large one that overshoots τ on its own.
			rates[i] = 1 + int64(b%8)
			if b >= 224 {
				rates[i] = int64(b) * 5
			}
		}
		data = data[numT:]
		subOff := []int64{0}
		var subTopics []workload.TopicID
		for len(data) > 0 && len(subOff) <= 64 {
			deg := 1 + int(data[0])%numT
			data = data[1:]
			start := len(subTopics)
			for k := 0; k < deg && len(data) > 0; k++ {
				tid := workload.TopicID(int(data[0]) % numT)
				data = data[1:]
				if !slices.Contains(subTopics[start:], tid) {
					subTopics = append(subTopics, tid)
				}
			}
			if len(subTopics) == start {
				break
			}
			subOff = append(subOff, int64(len(subTopics)))
		}
		if len(subOff) == 1 {
			return
		}
		w, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := w.NumSubscribers()

		sel := GreedySelectPairs(w, tau)
		if err := checkMatchesComparator(w, 0, n, tau, sel.subOff, sel.subTopics); err != nil {
			t.Fatalf("serial: %v", err)
		}
		par := GreedySelectPairsParallel(w, tau, 2)
		if err := checkMatchesComparator(w, 0, n, tau, par.subOff, par.subTopics); err != nil {
			t.Fatalf("parallel: %v", err)
		}
		lo := n / 3
		tk := &ticker{ctx: context.Background(), left: checkInterval}
		off, topics, err := greedySelectRange(w, rankTopics(w), lo, n, tau, block, tk)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkMatchesComparator(w, lo, n, tau, off, topics); err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		if !sel.Satisfied(tau) {
			t.Fatalf("subscriber %d unsatisfied at τ=%d", sel.FirstUnsatisfied(tau), tau)
		}
		ref := greedyReference(w, tau)
		for v := 0; v < n; v++ {
			if got, want := sel.SelectedRate(workload.SubID(v)), ref.SelectedRate(workload.SubID(v)); got != want {
				t.Fatalf("subscriber %d selected rate %d, greedyReference %d", v, got, want)
			}
		}
	})
}
