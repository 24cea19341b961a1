package elastic_test

import (
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/elastic"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
)

// BenchmarkKeepWithTopUp keeps one epoch's allocation under the next
// snapshot of a diurnal day at the pipeline benchmark's diurnal-replay
// size (~130k pairs), with the default policy's headroom: of the day's
// consecutive epochs, the pair whose total delivery rate falls the most,
// so the most subscribers need a top-up.
func BenchmarkKeepWithTopUp(b *testing.B) {
	w, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(0.05))
	if err != nil {
		b.Fatal(err)
	}
	tl, err := tracegen.Diurnal(w, experiments.DiurnalModulation())
	if err != nil {
		b.Fatal(err)
	}
	envelope, err := tl.Envelope()
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(experiments.DiurnalTau, experiments.ModelFor(pricing.C3Large, envelope))
	cfg.Fleet = experiments.FleetFor(envelope)
	trueFleet := cfg.EffectiveFleet()
	solveCfg := cfg
	solveCfg.Fleet = trueFleet.WithCapacityScale(1 - elastic.DefaultPolicy().HeadroomFrac)

	e, drop := 1, int64(0)
	for i := 1; i < tl.NumEpochs(); i++ {
		if d := tl.Epochs[i-1].TotalDeliveryRate() - tl.Epochs[i].TotalDeliveryRate(); d > drop {
			e, drop = i, d
		}
	}
	res, err := core.Solve(tl.Epochs[e-1], solveCfg)
	if err != nil {
		b.Fatal(err)
	}
	next := tl.Epochs[e]
	var added int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if _, added, ok = elastic.KeepWithTopUp(res.Allocation, next, cfg, solveCfg.EffectiveFleet(), trueFleet); !ok {
			b.Fatal("keep rejected")
		}
	}
	b.ReportMetric(float64(added), "added/op")
}
