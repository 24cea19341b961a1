package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"github.com/pubsub-systems/mcss/internal/workload"
)

// Selection is Stage 1's output: for every subscriber, the chosen subset of
// their topic subscriptions. It offers both the subscriber-major pair order
// (what FFBP consumes) and a topic-grouped view (what CBP consumes).
type Selection struct {
	w *workload.Workload

	// Subscriber-major CSR of selected topics.
	subOff    []int64
	subTopics []workload.TopicID

	// Topic-grouped CSR of selected subscribers, derived lazily. The
	// Once lets concurrent readers (Stage 2's portfolio members) share
	// one build.
	topicOnce sync.Once
	topicOff  []int64
	topicSubs []workload.SubID

	// selRates caches Σ_{t selected for v} ev_t per subscriber, built
	// lazily on first use so Satisfied/FirstUnsatisfied cost O(1) per
	// query after one O(pairs) pass.
	ratesOnce sync.Once
	selRates  []int64
}

// Workload returns the workload the selection was made from.
func (s *Selection) Workload() *workload.Workload { return s.w }

// NumPairs reports |S|, the number of selected pairs.
func (s *Selection) NumPairs() int64 { return int64(len(s.subTopics)) }

// SelectedTopics returns the selected topics of subscriber v. The slice
// aliases internal storage and must not be modified.
func (s *Selection) SelectedTopics(v workload.SubID) []workload.TopicID {
	return s.subTopics[s.subOff[v]:s.subOff[v+1]]
}

// SelectedRate reports the delivered event rate Σ_{t selected for v} ev_t.
func (s *Selection) SelectedRate(v workload.SubID) int64 {
	s.ratesOnce.Do(s.buildRates)
	return s.selRates[v]
}

// buildRates materializes the per-subscriber selected-rate cache.
func (s *Selection) buildRates() {
	n := len(s.subOff) - 1
	if n < 0 {
		n = 0
	}
	rates := make([]int64, n)
	for v := 0; v < n; v++ {
		var sum int64
		for _, t := range s.subTopics[s.subOff[v]:s.subOff[v+1]] {
			sum += s.w.Rate(t)
		}
		rates[v] = sum
	}
	s.selRates = rates
}

// OutgoingRate reports Σ over selected pairs of ev_t (events/hour): the
// outgoing event volume the allocation will carry.
func (s *Selection) OutgoingRate() int64 {
	var sum int64
	for _, t := range s.subTopics {
		sum += s.w.Rate(t)
	}
	return sum
}

// SelectedSubscribers returns the selected subscribers of topic t, building
// the topic-grouped view on first use. The slice aliases internal storage
// and must not be modified.
func (s *Selection) SelectedSubscribers(t workload.TopicID) []workload.SubID {
	s.topicOnce.Do(s.buildTopicView)
	return s.topicSubs[s.topicOff[t]:s.topicOff[t+1]]
}

// Pairs invokes fn for every selected pair in subscriber-major order,
// stopping early if fn returns false.
func (s *Selection) Pairs(fn func(workload.Pair) bool) {
	for v := 0; v+1 < len(s.subOff); v++ {
		for _, t := range s.subTopics[s.subOff[v]:s.subOff[v+1]] {
			if !fn(workload.Pair{Topic: t, Sub: workload.SubID(v)}) {
				return
			}
		}
	}
}

func (s *Selection) buildTopicView() {
	numT := s.w.NumTopics()
	counts := make([]int64, numT+1)
	for _, t := range s.subTopics {
		counts[t+1]++
	}
	for i := 1; i <= numT; i++ {
		counts[i] += counts[i-1]
	}
	s.topicOff = counts
	s.topicSubs = make([]workload.SubID, len(s.subTopics))
	next := make([]int64, numT)
	copy(next, s.topicOff[:numT])
	for v := 0; v+1 < len(s.subOff); v++ {
		for _, t := range s.subTopics[s.subOff[v]:s.subOff[v+1]] {
			s.topicSubs[next[t]] = workload.SubID(v)
			next[t]++
		}
	}
}

// Satisfied reports whether every subscriber's selected rate meets its
// threshold τ_v, i.e. the Σ f_v = |V| constraint of the MCSS definition.
func (s *Selection) Satisfied(tau int64) bool {
	return s.FirstUnsatisfied(tau) < 0
}

// FirstUnsatisfied returns the smallest subscriber ID whose selected rate is
// below τ_v, or -1 when all are satisfied.
func (s *Selection) FirstUnsatisfied(tau int64) workload.SubID {
	for v := 0; v+1 < len(s.subOff); v++ {
		if s.SelectedRate(workload.SubID(v)) < s.w.TauV(workload.SubID(v), tau) {
			return workload.SubID(v)
		}
	}
	return -1
}

// GreedySelectPairs implements the paper's GSP (Alg. 1 + Alg. 2). For each
// subscriber it selects pairs by maximum benefit/cost ratio
// min(1, ev_t/rem_v) / (2·ev_t) until τ_v is reached.
//
// The implementation exploits the structure of the ratio rather than
// re-scanning an array per pick: every not-yet-selected topic with
// ev_t ≤ rem_v ties at ratio 1/(2·rem_v), and every topic with ev_t > rem_v
// scores 1/(2·ev_t) — strictly worse than any fitting topic. The greedy
// therefore (1) takes fitting topics (largest-first is our deterministic
// tie-break, which also minimizes the pair count), and (2) when no topic
// fits in the remaining demand, takes the smallest-rate remaining topic and
// finishes. greedyReference in tests implements Alg. 2 literally and is
// property-checked to select pairs of identical total bandwidth.
//
// Every subscriber walks its topics in the same preference order — rate
// descending, then topic ID ascending — so the solve ranks the T topics
// once instead of sorting each subscriber's list. A blocked transposition
// then hands every subscriber its topics already in rank order: for each
// block of subscribers (at most gspBlockPairs pairs, or T when that is
// larger), the topics are visited in rank order and each one's subscribers
// inside the block receive it; Workload.Subscribers being ascending in
// SubID lets one forward-moving cursor per topic find them. The pick is an
// early-exit linear scan of that list, and the only sort left orders the
// few selected topics by ID. A solve costs O(P + T log T) for P pairs and
// T topics, with no per-subscriber sort, and O(T) scratch beyond one
// block's pairs and a copy of the selection.
func GreedySelectPairs(w *workload.Workload, tau int64) *Selection {
	sel, _ := GreedySelectPairsContext(context.Background(), w, Config{Tau: tau})
	return sel
}

// GreedySelectPairsContext is GreedySelectPairs with context cancellation
// (checked every checkInterval subscribers), Config.Observer progress
// callbacks, and Config.Parallelism-controlled sharding. It is the
// SelectPairs implementation of the registered "gsp" strategy.
func GreedySelectPairsContext(ctx context.Context, w *workload.Workload, cfg Config) (*Selection, error) {
	cfg.Observer = ResolveObserver(ctx, cfg)
	if workers := stage1Workers(cfg.Parallelism, w.NumSubscribers()); workers > 1 {
		return greedySelectParallel(ctx, w, cfg.Tau, workers, cfg.Observer)
	}
	start := time.Now()
	tk := newTicker(ctx, cfg.Observer, StageSelect, int64(w.NumSubscribers()))
	subOff, subTopics, err := greedySelectRange(w, rankTopics(w), 0, w.NumSubscribers(), cfg.Tau, gspBlock(w), tk)
	if err != nil {
		return nil, err
	}
	tk.finish(time.Since(start))
	return &Selection{w: w, subOff: subOff, subTopics: subTopics}, nil
}

// gspBlockPairs is the pair count GSP transposes at a time: large enough
// that the per-block walk over all topics amortizes, small enough that the
// block buffer stays in cache and the solve's allocation stays flat.
const gspBlockPairs = 1 << 15

// gspBlock is the block size for w: gspBlockPairs, or the topic count when
// that is larger, so the per-block topic walk never outweighs the block's
// pairs and a solve stays O(P + T log T).
func gspBlock(w *workload.Workload) int64 {
	return max(gspBlockPairs, int64(w.NumTopics()))
}

// rankTopics returns every topic ID in GSP's preference order: rate
// descending, then ID ascending.
func rankTopics(w *workload.Workload) []workload.TopicID {
	rates := w.Rates()
	rank := make([]workload.TopicID, len(rates))
	for i := range rank {
		rank[i] = workload.TopicID(i)
	}
	slices.SortFunc(rank, func(a, b workload.TopicID) int {
		if c := cmp.Compare(rates[b], rates[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return rank
}

// greedySelectRange runs GSP over subscribers [lo, hi) and returns the
// CSR fragment (offsets relative to the fragment start). rank is
// rankTopics(w); blockPairs bounds the pairs transposed at once (a block
// always holds at least one subscriber, so a subscriber of larger degree
// gets a block of its own). tk polls cancellation once per checkInterval
// subscribers; it may be a ticker with a nil observer (the parallel
// workers' setting).
func greedySelectRange(w *workload.Workload, rank []workload.TopicID, lo, hi int, tau, blockPairs int64, tk *ticker) ([]int64, []workload.TopicID, error) {
	rates := w.Rates()
	// cur[t] is the next entry of Subscribers(t) not yet transposed and
	// head[t] the subscriber it names, or noSub past the list's end. The
	// lists are ascending in SubID, so the cursors only move forward, a
	// shard seeds them by binary search for lo, and a block passes over a
	// topic with no subscriber in it without touching the topic's list.
	const noSub = workload.SubID(math.MaxInt32)
	cur := make([]int, len(rank))
	head := make([]workload.SubID, len(rank))
	for t := range cur {
		subs := w.Subscribers(workload.TopicID(t))
		if lo > 0 {
			cur[t], _ = slices.BinarySearch(subs, workload.SubID(lo))
		}
		head[t] = noSub
		if cur[t] < len(subs) {
			head[t] = subs[cur[t]]
		}
	}
	subOff := make([]int64, 1, hi-lo+1)
	// Each block's picks overwrite the block's front, are copied out
	// exactly, and the copies are joined once at the end: the selection's
	// size is known only after the last block, and a slice grown on a guess
	// would allocate by the subscribers' order.
	var (
		block []workload.TopicID   // the block's topics, subscriber-major, each run in rank order
		next  []int32              // next[i]: where subscriber b0+i's next topic lands in block
		parts [][]workload.TopicID // every finished block's selection
		done  int64                // selected pairs in parts
	)
	for b0 := lo; b0 < hi; {
		// The block takes subscribers while its pairs fit in blockPairs;
		// capping its subscriber count too bounds next when many follow
		// nothing.
		b1 := b0 + 1
		pairs := int64(w.Followings(workload.SubID(b0)))
		next = append(next[:0], 0)
		for b1 < hi && int64(b1-b0) < blockPairs {
			d := int64(w.Followings(workload.SubID(b1)))
			if pairs+d > blockPairs {
				break
			}
			next = append(next, int32(pairs))
			pairs += d
			b1++
		}
		block = slices.Grow(block[:0], int(pairs))[:pairs]
		for _, t := range rank {
			if int(head[t]) >= b1 {
				continue
			}
			subs := w.Subscribers(t)
			c := cur[t]
			for ; c < len(subs) && int(subs[c]) < b1; c++ {
				i := int(subs[c]) - b0
				block[next[i]] = t
				next[i]++
			}
			cur[t], head[t] = c, noSub
			if c < len(subs) {
				head[t] = subs[c]
			}
		}
		// Each next[i] now ends subscriber b0+i's run. A subscriber picks
		// at most its run, so picks never overtake the runs still unread.
		var from int32
		picks := block[:0]
		for _, end := range next {
			if err := tk.tick(1); err != nil {
				return nil, nil, err
			}
			picks = appendGSPPick(picks, block[from:end], rates, tau)
			from = end
			subOff = append(subOff, done+int64(len(picks)))
		}
		parts = append(parts, slices.Clone(picks))
		done += int64(len(picks))
		b0 = b1
	}
	subTopics := make([]workload.TopicID, 0, done)
	for _, p := range parts {
		subTopics = append(subTopics, p...)
	}
	return subOff, subTopics, nil
}

// appendGSPPick appends one subscriber's GSP selection to dst in ascending
// ID order. ranked is the subscriber's topic list in rank order. dst may
// share ranked's array as long as it ends at or before ranked starts: the
// i-th entry of ranked is read before anything is written past dst's
// length plus i.
func appendGSPPick(dst, ranked []workload.TopicID, rates []int64, tau int64) []workload.TopicID {
	start := len(dst)
	var demand int64
	for _, t := range ranked {
		demand += rates[t]
	}
	if demand <= tau {
		// τ_v is the whole demand: everything is needed.
		dst = append(dst, ranked...)
	} else {
		rem := tau
		var lastSkipped workload.TopicID
		for _, t := range ranked {
			if rem <= 0 {
				break
			}
			if r := rates[t]; r <= rem {
				dst = append(dst, t)
				rem -= r
			} else {
				lastSkipped = t
			}
		}
		if rem > 0 {
			// No remaining topic fits within rem; all skipped topics
			// exceed it. The best benefit/cost is the smallest rate,
			// which (rank order) is the last skipped entry.
			dst = append(dst, lastSkipped)
		}
	}
	sortTopicIDs(dst[start:])
	return dst
}

func sortTopicIDs(s []workload.TopicID) {
	slices.Sort(s)
}

// RandomSelectPairs implements the paper's naive RSP baseline (Alg. 6): for
// each subscriber, pairs are taken in input (adjacency) order until τ_v is
// met, with no regard for bandwidth cost.
func RandomSelectPairs(w *workload.Workload, tau int64) *Selection {
	sel, _ := RandomSelectPairsContext(context.Background(), w, Config{Tau: tau})
	return sel
}

// RandomSelectPairsContext is RandomSelectPairs with context cancellation
// and Config.Observer progress callbacks — the SelectPairs implementation
// of the registered "rsp" strategy.
func RandomSelectPairsContext(ctx context.Context, w *workload.Workload, cfg Config) (*Selection, error) {
	cfg.Observer = ResolveObserver(ctx, cfg)
	start := time.Now()
	n := w.NumSubscribers()
	tk := newTicker(ctx, cfg.Observer, StageSelect, int64(n))
	subOff := make([]int64, 1, n+1)
	subTopics := make([]workload.TopicID, 0, w.NumPairs()/2+1)
	for v := 0; v < n; v++ {
		if err := tk.tick(1); err != nil {
			return nil, err
		}
		tauV := w.TauV(workload.SubID(v), cfg.Tau)
		var got int64
		for _, t := range w.Topics(workload.SubID(v)) {
			if got >= tauV {
				break
			}
			subTopics = append(subTopics, t)
			got += w.Rate(t)
		}
		subOff = append(subOff, int64(len(subTopics)))
	}
	tk.finish(time.Since(start))
	return &Selection{w: w, subOff: subOff, subTopics: subTopics}, nil
}

// SelectionFromPairs builds a Selection from an explicit pair list in any
// order, de-duplicating repeats. It is how full-solve strategies (like the
// exact solver) and external tools re-enter the allocation pipeline with a
// pair set they chose themselves; since that pair set crosses an API
// boundary, out-of-range topic or subscriber IDs are rejected with an
// error rather than corrupting the solve downstream.
func SelectionFromPairs(w *workload.Workload, pairs []workload.Pair) (*Selection, error) {
	n := w.NumSubscribers()
	numT := w.NumTopics()
	perSub := make([][]workload.TopicID, n)
	for i, p := range pairs {
		if int(p.Sub) < 0 || int(p.Sub) >= n {
			return nil, fmt.Errorf("core: pair %d references subscriber %d of %d", i, p.Sub, n)
		}
		if int(p.Topic) < 0 || int(p.Topic) >= numT {
			return nil, fmt.Errorf("core: pair %d references topic %d of %d", i, p.Topic, numT)
		}
		perSub[p.Sub] = append(perSub[p.Sub], p.Topic)
	}
	subOff := make([]int64, 1, n+1)
	subTopics := make([]workload.TopicID, 0, len(pairs))
	for v := 0; v < n; v++ {
		ts := perSub[v]
		sortTopicIDs(ts)
		for i, t := range ts {
			if i > 0 && ts[i-1] == t {
				continue // de-duplicate
			}
			subTopics = append(subTopics, t)
		}
		subOff = append(subOff, int64(len(subTopics)))
	}
	return &Selection{w: w, subOff: subOff, subTopics: subTopics}, nil
}

// SelectAllPairs returns the selection containing every pair (the no-τ
// deployment); useful as an upper baseline and in tests.
func SelectAllPairs(w *workload.Workload) *Selection {
	n := w.NumSubscribers()
	subOff := make([]int64, 1, n+1)
	subTopics := make([]workload.TopicID, 0, w.NumPairs())
	for v := 0; v < n; v++ {
		subTopics = append(subTopics, w.Topics(workload.SubID(v))...)
		subOff = append(subOff, int64(len(subTopics)))
	}
	return &Selection{w: w, subOff: subOff, subTopics: subTopics}
}

// runStage1 dispatches Stage 1: a pluggable Stage1Strategy when set,
// otherwise the configured enum algorithm.
func runStage1(ctx context.Context, w *workload.Workload, cfg Config) (*Selection, error) {
	if cfg.Stage1Strategy.SelectPairs != nil {
		return cfg.Stage1Strategy.SelectPairs(ctx, w, cfg)
	}
	switch cfg.Stage1 {
	case Stage1Random:
		return RandomSelectPairsContext(ctx, w, cfg)
	default:
		return GreedySelectPairsContext(ctx, w, cfg)
	}
}
