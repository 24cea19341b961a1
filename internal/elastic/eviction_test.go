package elastic_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/elastic"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// relabel presents w with its topic and subscriber IDs permuted by rng:
// the same instance in another order.
func relabel(t *testing.T, w *workload.Workload, rng *rand.Rand) *workload.Workload {
	t.Helper()
	topic, sub := rng.Perm(w.NumTopics()), rng.Perm(w.NumSubscribers())
	rates := make([]int64, w.NumTopics())
	for old, nt := range topic {
		rates[nt] = w.Rate(workload.TopicID(old))
	}
	off := make([]int64, 1, w.NumSubscribers()+1)
	topics := make([]workload.TopicID, 0, w.NumPairs())
	for _, v := range sub {
		start := len(topics)
		for _, tp := range w.Topics(workload.SubID(v)) {
			topics = append(topics, workload.TopicID(topic[tp]))
		}
		slices.Sort(topics[start:])
		off = append(off, int64(len(topics)))
	}
	rw, err := workload.FromCSR(rates, off, topics, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rw
}

// TestIncrementalWalkSurvivesOverfullKeptSlots replays diurnal timelines on
// which an incremental epoch after a kept epoch used to fail with "slot N
// over capacity with no touched pairs left": the kept allocation loads VMs
// past their headroom-derated capacity, so a later rate rise can leave a
// slot over capacity with only untouched pairs on it. Every epoch must now
// serve every subscriber within true capacity.
func TestIncrementalWalkSurvivesOverfullKeptSlots(t *testing.T) {
	base, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(0.0025))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{6, 8} {
		w := relabel(t, base, rand.New(rand.NewSource(seed)))
		tl, err := tracegen.Diurnal(w, experiments.DiurnalModulation())
		if err != nil {
			t.Fatal(err)
		}
		envelope, err := tl.Envelope()
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(experiments.DiurnalTau, experiments.ModelFor(pricing.C3Large, envelope))
		cfg.Fleet = experiments.FleetFor(envelope)
		policy := elastic.DefaultPolicy()
		policy.Incremental = true
		wk, err := elastic.NewController(cfg, policy).Start(context.Background(), tl)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for e := 0; e < tl.NumEpochs(); e++ {
			if _, err := wk.Step(context.Background()); err != nil {
				t.Fatalf("seed %d: epoch %d: %v", seed, e, err)
			}
			if err := core.VerifyServes(wk.Workload(), wk.Allocation(), cfg); err != nil {
				t.Fatalf("seed %d: epoch %d: %v", seed, e, err)
			}
		}
		if _, err := wk.Finish(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
