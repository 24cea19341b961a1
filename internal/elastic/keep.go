package elastic

import (
	"cmp"
	"slices"
	"sort"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// keepWithTopUp rebuilds the previous epoch's placements under the new
// workload snapshot and, where falling rates leave subscribers below
// τ_v = min(τ, demand), tops the allocation up by *adding* pairs instead of
// migrating existing ones. Pairs whose subscriber no longer follows the
// topic (churned away in the snapshot) are pruned during the rebuild —
// stopping a stream to an unsubscribed user is not churn, and keeping it
// would inflate the kept bill, overstate utilization against the scale-up
// guard, and let stale deliveries count toward satisfaction. Candidate
// top-up pairs follow the Stage-1 greedy's minimal-overshoot rule — the
// largest unplaced rate that still fits the remaining need, and only when
// none fits the smallest rate that closes it — so a 15-events/hour
// shortfall never drags in a 100k-events/hour bot topic. Each added pair
// lands on a VM already hosting the topic (most free first), then on the
// most-free VM with room for the topic's ingress, then on a fresh VM of
// the cheapest fitting solve-fleet type.
//
// Placements keep the (possibly headroom-derated) solveFleet capacities
// for packing decisions, while validity — every VM within capacity —
// is judged against trueFleet, so ordinary rate drift inside the headroom
// does not invalidate a kept allocation. A true-capacity overshoot from
// rising rates is not repaired here (that is a scale-up, which the
// controller hands to the solver), so ok=false in that case.
//
// It reports the repriced (and possibly topped-up) allocation, the number
// of pairs added, and whether the result is valid for the snapshot.
func keepWithTopUp(prev *core.Allocation, w *workload.Workload, cfg core.Config, solveFleet, trueFleet pricing.Fleet) (*core.Allocation, int64, bool) {
	msg := cfg.MessageBytes
	numV := w.NumSubscribers()
	out := &core.Allocation{
		VMs:          make([]*core.VM, len(prev.VMs)),
		Fleet:        prev.Fleet,
		MessageBytes: msg,
	}
	// need[v] accumulates v's delivered rate, then turns into the shortfall
	// τ_v − delivered. placedOff[v] first counts v's kept pairs; it becomes
	// the offsets of a CSR over the needy subscribers' placed topics.
	need := make([]int64, numV)
	placedOff := make([]int32, numV+1)

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
			// Each kept VM gets its own placement slices: top-up appends
			// to Subs, and the previous allocation must survive untouched
			// for migration diffing. Subscribers that dropped the topic
			// are pruned here; a placement with no interested subscribers
			// left disappears entirely (with its ingress).
			subs := make([]workload.SubID, 0, len(p.Subs))
			for _, v := range p.Subs {
				if follows(w, v, p.Topic) {
					subs = append(subs, v)
				}
			}
			if len(subs) == 0 {
				continue
			}
			rate := w.Rate(p.Topic)
			rb := rate * msg
			nv.Placements = append(nv.Placements, core.TopicPlacement{Topic: p.Topic, Subs: subs})
			nv.InBytesPerHour += rb
			nv.OutBytesPerHour += rb * int64(len(subs))
			// Placements hold each selected pair exactly once (a solver
			// invariant both re-solving and topping up preserve), so the
			// delivered sum needs no dedup.
			for _, v := range subs {
				need[v] += rate
				placedOff[v]++
			}
		}
		if nv.BytesPerHour() > trueCapacity(nv, trueFleet) {
			return nil, 0, false // rising rates: a scale-up, not a top-up
		}
		out.VMs[i] = nv
	}

	// Only subscribers below τ_v keep their placed topics: inclusive
	// prefix sums leave placedOff[v] at the end of v's segment, and the
	// fill below counts each back down to its start.
	needy := false
	var total int32
	for v := range need {
		need[v] = w.TauV(workload.SubID(v), cfg.Tau) - need[v]
		if need[v] > 0 {
			needy = true
			total += placedOff[v]
		}
		placedOff[v] = total
	}
	if !needy {
		return out, 0, true
	}
	placedOff[numV] = total
	placed := make([]workload.TopicID, total)
	for _, vm := range out.VMs {
		for _, p := range vm.Placements {
			for _, v := range p.Subs {
				if need[v] > 0 {
					placedOff[v]--
					placed[placedOff[v]] = p.Topic
				}
			}
		}
	}

	// Candidates are ranks in one (rate ascending, ID ascending) order of
	// all topics; rankRate[r] is the rate of the topic of rank r.
	numT := w.NumTopics()
	byRank := make([]workload.TopicID, numT)
	for t := range byRank {
		byRank[t] = workload.TopicID(t)
	}
	slices.SortFunc(byRank, func(a, b workload.TopicID) int {
		if c := cmp.Compare(w.Rate(a), w.Rate(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	rank := make([]int32, numT)
	rankRate := make([]int64, numT)
	for r, t := range byRank {
		rank[t] = int32(r)
		rankRate[r] = w.Rate(t)
	}
	// Each needy subscriber's interests as ranks, ascending: walking the
	// topics from the highest rank down and counting each needy row's
	// offset back down transposes the topic CSR into rank order, with no
	// per-subscriber sort.
	candOff := make([]int32, numV+1)
	total = 0
	for v, gap := range need {
		if gap > 0 {
			total += int32(w.Followings(workload.SubID(v)))
		}
		candOff[v] = total
	}
	candOff[numV] = total
	cands := make([]int32, total)
	for r := numT - 1; r >= 0; r-- {
		for _, v := range w.Subscribers(byRank[r]) {
			if need[v] > 0 {
				candOff[v]--
				cands[candOff[v]] = int32(r)
			}
		}
	}
	// stamp[r] == v+1 marks the topic of rank r as placed for subscriber v.
	stamp := make([]int32, numT)

	// Top-up placement goes through the shared indexed re-homing engine
	// (host with room → most-free VM → deploy the cheapest fitting type);
	// it shares out's VM pointers, so placements and deploys land directly
	// in the kept allocation.
	rh := core.NewRehomer(out, solveFleet)
	var added int64
	for v, gap := range need {
		if gap <= 0 {
			continue
		}
		id := workload.SubID(v)
		mark := int32(v) + 1
		for _, t := range placed[placedOff[v]:placedOff[v+1]] {
			stamp[rank[t]] = mark
		}
		// Drop the placed interests, compacting v's row in place.
		row := cands[candOff[v]:candOff[v]]
		for _, r := range cands[candOff[v]:candOff[v+1]] {
			if stamp[r] != mark {
				row = append(row, r)
			}
		}
		for gap > 0 {
			r, rest, ok := pickMinimalOvershoot(rankRate, row, gap)
			if !ok {
				return nil, 0, false // interests exhausted below τ_v
			}
			row = rest
			if _, ok := rh.PlacePair(byRank[r], id, rankRate[r]*msg); !ok {
				return nil, 0, false
			}
			gap -= rankRate[r]
			added++
		}
	}
	return out, added, true
}

// follows reports whether v's (ascending) interest list contains t.
func follows(w *workload.Workload, v workload.SubID, t workload.TopicID) bool {
	_, ok := slices.BinarySearch(w.Topics(v), t)
	return ok
}

// pickMinimalOvershoot chooses the next top-up topic from the ascending
// candidate ranks (rankRate gives each rank's rate): the largest rate ≤
// need (fastest progress with no overshoot; the highest ID among equal
// rates), else the smallest rate with the lowest ID, which closes the gap
// with the least excess. It returns the pick and the remaining candidates.
func pickMinimalOvershoot(rankRate []int64, cands []int32, need int64) (int32, []int32, bool) {
	if len(cands) == 0 {
		return 0, nil, false
	}
	// First index with rate > need.
	i := sort.Search(len(cands), func(i int) bool { return rankRate[cands[i]] > need })
	if i > 0 {
		i-- // largest rate ≤ need
	}
	r := cands[i]
	return r, append(cands[:i], cands[i+1:]...), true
}
