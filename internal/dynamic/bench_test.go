package dynamic_test

import (
	"context"
	"math/rand"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Benchmark results land here so the measured calls cannot be dropped.
var (
	fingerprintSink string
	statsSink       dynamic.MigrationStats
	workloadSink    *workload.Workload
)

// churnEpoch is one 1%-churn epoch at the pipeline benchmark's
// churn-steady size (~130k pairs): the solved base allocation and the
// incremental candidate for the next workload.
func churnEpoch(b *testing.B) (next *workload.Workload, before, after *core.Allocation, m pricing.Model) {
	b.Helper()
	w, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(0.05))
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(100, experiments.ModelFor(pricing.C3Large, w))
	cfg.Fleet = experiments.FleetFor(w)
	prov, err := dynamic.New(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	delta := experiments.ChurnDelta(rand.New(rand.NewSource(1)), w, 0.01)
	next, res, _, err := prov.PreviewIncremental(context.Background(), delta)
	if err != nil {
		b.Fatal(err)
	}
	return next, prov.Allocation(), res.Allocation, cfg.Model
}

// BenchmarkStateFingerprint hashes the candidate state of a churn epoch.
// "cold" hashes a workload never hashed before (the workload section and
// the allocation); "memoized" hashes one whose section is already
// memoized, which is every fingerprint of an epoch but the first.
func BenchmarkStateFingerprint(b *testing.B) {
	w, _, alloc, _ := churnEpoch(b)
	off := []int64{0}
	var topics []workload.TopicID
	for v := 0; v < w.NumSubscribers(); v++ {
		topics = append(topics, w.Topics(workload.SubID(v))...)
		off = append(off, int64(len(topics)))
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh, err := workload.FromCSR(w.Rates(), off, topics, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			fingerprintSink = dynamic.StateFingerprint(fresh, alloc)
		}
	})
	b.Run("memoized", func(b *testing.B) {
		dynamic.StateFingerprint(w, alloc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fingerprintSink = dynamic.StateFingerprint(w, alloc)
		}
	})
}

// BenchmarkMigrationStatsBetween diffs a churn epoch's base allocation
// against its incremental candidate, as NewPlan and Apply do each epoch.
func BenchmarkMigrationStatsBetween(b *testing.B) {
	_, before, after, m := churnEpoch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statsSink = dynamic.MigrationStatsBetween(before, after, m)
	}
}

// BenchmarkApplyDelta swaps in the next workload of a diurnal day at the
// pipeline benchmark's diurnal-replay size (~130k pairs): of the day's
// consecutive epochs, the pair whose delta unsubscribes and resubscribes
// the most pairs (sleep churn), on top of the rate change every topic gets.
func BenchmarkApplyDelta(b *testing.B) {
	w, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(0.05))
	if err != nil {
		b.Fatal(err)
	}
	tl, err := tracegen.Diurnal(w, experiments.DiurnalModulation())
	if err != nil {
		b.Fatal(err)
	}
	var base *workload.Workload
	var delta dynamic.Delta
	for e := 1; e < tl.NumEpochs(); e++ {
		d, err := dynamic.DeltaBetween(tl.Epochs[e-1], tl.Epochs[e])
		if err != nil {
			b.Fatal(err)
		}
		if base == nil || len(d.Subscribe)+len(d.Unsubscribe) > len(delta.Subscribe)+len(delta.Unsubscribe) {
			base, delta = tl.Epochs[e-1], d
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if workloadSink, err = dynamic.ApplyDelta(base, delta); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(delta.Subscribe)+len(delta.Unsubscribe)), "pairs/delta")
	b.ReportMetric(float64(len(delta.RateChanges)), "rates/delta")
}
