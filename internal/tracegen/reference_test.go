package tracegen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/pubsub-systems/mcss/internal/workload"
)

// twitterReference is Twitter as it was with a map of drawn topics per
// subscriber and a comparator sort.
func twitterReference(cfg TwitterConfig) (*workload.Workload, error) {
	if cfg.Topics <= 0 || cfg.Subscribers <= 0 {
		return nil, fmt.Errorf("tracegen: need positive Topics (%d) and Subscribers (%d)", cfg.Topics, cfg.Subscribers)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Topic popularity weights: bounded Pareto.
	weights := make([]float64, cfg.Topics)
	for i := range weights {
		weights[i] = float64(boundedPareto(rng, 1, 1_000_000, cfg.PopularityAlpha))
	}
	table, err := newAliasTable(weights)
	if err != nil {
		return nil, err
	}

	// Interests: every subscriber samples an interest size, then picks
	// distinct topics popularity-proportionally.
	subOff := make([]int64, 1, cfg.Subscribers+1)
	var subTopics []workload.TopicID
	picked := make(map[int32]struct{}, 64)
	for v := 0; v < cfg.Subscribers; v++ {
		deg := cfg.sampleFollowings(rng)
		if deg > int64(cfg.Topics)/2 {
			deg = int64(cfg.Topics) / 2
			if deg == 0 {
				deg = 1
			}
		}
		clear(picked)
		for int64(len(picked)) < deg {
			picked[table.sample(rng)] = struct{}{}
		}
		start := len(subTopics)
		for t := range picked {
			subTopics = append(subTopics, workload.TopicID(t))
		}
		seg := subTopics[start:]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		subOff = append(subOff, int64(len(subTopics)))
	}

	// Follower counts (to couple rates to popularity).
	followers := make([]int64, cfg.Topics)
	for _, t := range subTopics {
		followers[t]++
	}

	// Event rates.
	rates := make([]int64, cfg.Topics)
	for t := range rates {
		if rng.Float64() < cfg.BotFraction {
			lo := cfg.MaxRate / 10
			rates[t] = lo + rng.Int63n(cfg.MaxRate-lo+1)
			continue
		}
		f := float64(followers[t])
		if f < 1 {
			f = 1
		}
		mean := cfg.RateScale * math.Pow(f, cfg.RateExponent)
		if followers[t] > cfg.CelebrityFollowers {
			mean *= cfg.CelebrityDamping
		}
		noise := math.Exp(rng.NormFloat64() * cfg.RateNoiseSigma)
		r := int64(mean * noise)
		if r < 1 {
			r = 1
		}
		if r > cfg.MaxRate {
			r = cfg.MaxRate
		}
		rates[t] = r
	}

	return compact(rates, subOff, subTopics)
}

// spotifyReference is Spotify as it was with a map of drawn topics per
// subscriber and a comparator sort.
func spotifyReference(cfg SpotifyConfig) (*workload.Workload, error) {
	if cfg.Topics <= 0 || cfg.Subscribers <= 0 {
		return nil, fmt.Errorf("tracegen: need positive Topics (%d) and Subscribers (%d)", cfg.Topics, cfg.Subscribers)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	weights := make([]float64, cfg.Topics)
	for i := range weights {
		weights[i] = float64(boundedPareto(rng, 1, 100_000, cfg.PopularityAlpha))
	}
	table, err := newAliasTable(weights)
	if err != nil {
		return nil, err
	}

	subOff := make([]int64, 1, cfg.Subscribers+1)
	var subTopics []workload.TopicID
	picked := make(map[int32]struct{}, 16)
	for v := 0; v < cfg.Subscribers; v++ {
		deg := boundedPareto(rng, cfg.MinFollowings, cfg.MaxFollowings, cfg.FollowingsAlpha)
		if deg > int64(cfg.Topics)/2 {
			deg = int64(cfg.Topics) / 2
			if deg == 0 {
				deg = 1
			}
		}
		clear(picked)
		for int64(len(picked)) < deg {
			picked[table.sample(rng)] = struct{}{}
		}
		start := len(subTopics)
		for t := range picked {
			subTopics = append(subTopics, workload.TopicID(t))
		}
		seg := subTopics[start:]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		subOff = append(subOff, int64(len(subTopics)))
	}

	rates := make([]int64, cfg.Topics)
	for t := range rates {
		r := int64(math.Exp(rng.NormFloat64()*cfg.RateLogSigma + cfg.RateLogMean))
		if r < 1 {
			r = 1
		}
		if r > cfg.MaxRate {
			r = cfg.MaxRate
		}
		rates[t] = r
	}

	return compact(rates, subOff, subTopics)
}

// sameTrace reports whether two workloads have equal rates and interest
// rows.
func sameTrace(got, want *workload.Workload) bool {
	if !slices.Equal(got.Rates(), want.Rates()) || got.NumSubscribers() != want.NumSubscribers() {
		return false
	}
	for v := 0; v < want.NumSubscribers(); v++ {
		if !slices.Equal(got.Topics(workload.SubID(v)), want.Topics(workload.SubID(v))) {
			return false
		}
	}
	return true
}

// TestGeneratorsMatchReference pins Twitter and Spotify, which mark drawn
// topics in a stamp array, to the map-based generators: the same RNG
// draws, so the same traces. The one- and three-topic configurations clamp
// every subscriber's degree to max(1, Topics/2).
func TestGeneratorsMatchReference(t *testing.T) {
	for _, seed := range []int64{1, 42, 99} {
		for _, size := range []struct{ topics, subs int }{{1, 5}, {3, 40}, {50, 250}, {400, 2000}} {
			name := fmt.Sprintf("seed %d, %d topics", seed, size.topics)
			tc := DefaultTwitterConfig()
			tc.Topics, tc.Subscribers, tc.Seed = size.topics, size.subs, seed
			got, err := Twitter(tc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twitterReference(tc)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTrace(got, want) {
				t.Errorf("Twitter, %s: trace differs from the reference", name)
			}
			sc := DefaultSpotifyConfig()
			sc.Topics, sc.Subscribers, sc.Seed = size.topics, size.subs, seed
			if got, err = Spotify(sc); err != nil {
				t.Fatal(err)
			}
			if want, err = spotifyReference(sc); err != nil {
				t.Fatal(err)
			}
			if !sameTrace(got, want) {
				t.Errorf("Spotify, %s: trace differs from the reference", name)
			}
		}
	}
}
