package traceio

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// writePlanReference is the reflection-based writer the plan encoder
// replaced: build a planDoc, json.MarshalIndent it. It stays here as the
// oracle encodePlan must match byte for byte.
func writePlanReference(p *deploy.Plan, out io.Writer) error {
	if err := p.Validate(); err != nil {
		return err
	}
	doc := planDoc{
		Format:          planFormat,
		Version:         p.Version,
		BaseFingerprint: p.BaseFingerprint,
		Tau:             p.Tau,
		MessageBytes:    p.MessageBytes,
		Model: modelDoc{
			Instance:         instToDoc(p.Model.Instance),
			Hours:            p.Model.Hours,
			PerGB:            p.Model.PerGB,
			CapacityOverride: p.Model.CapacityOverrideBytesPerHour,
		},
		Diff:       diffToDocReference(p.Diff),
		CostBefore: p.CostBefore,
		CostAfter:  p.CostAfter,
		Target: targetDoc{
			Workload:   workloadToDocReference(p.Target.Workload),
			Allocation: allocToDocReference(p.Target.Allocation),
		},
	}
	for i := 0; i < p.Fleet.Len(); i++ {
		doc.Fleet = append(doc.Fleet, fleetTypeDoc{
			instanceDoc: instToDoc(p.Fleet.Type(i)),
			Capacity:    p.Fleet.Capacity(i),
		})
	}
	for _, s := range p.Steps {
		doc.Steps = append(doc.Steps, stepToDocReference(s))
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = out.Write(b)
	return err
}
func diffToDocReference(d deploy.Diff) diffDoc {
	doc := diffDoc{
		NewTopics:      d.Delta.NewTopics,
		NewSubscribers: d.Delta.NewSubscribers,
		PairsMoved:     d.Stats.PairsMoved,
		PairsKept:      d.Stats.PairsKept,
		VMsBefore:      d.Stats.VMsBefore,
		VMsAfter:       d.Stats.VMsAfter,
	}
	for t, r := range d.Delta.RateChanges {
		doc.RateChanges = append(doc.RateChanges, pairDoc{int64(t), r})
	}
	sort.Slice(doc.RateChanges, func(i, j int) bool { return doc.RateChanges[i][0] < doc.RateChanges[j][0] })
	for _, p := range d.Delta.Subscribe {
		doc.Subscribe = append(doc.Subscribe, pairDoc{int64(p.Topic), int64(p.Sub)})
	}
	for _, p := range d.Delta.Unsubscribe {
		doc.Unsubscribe = append(doc.Unsubscribe, pairDoc{int64(p.Topic), int64(p.Sub)})
	}
	sortPairDocsReference(doc.Subscribe)
	sortPairDocsReference(doc.Unsubscribe)
	return doc
}
func sortPairDocsReference(ps []pairDoc) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}
func stepToDocReference(s dynamic.Step) stepDoc {
	doc := stepDoc{Op: string(s.Op), VM: s.VM}
	switch s.Op {
	case dynamic.OpBootVM:
		inst := instToDoc(s.Instance)
		doc.Instance = &inst
		doc.Capacity = s.Capacity
	case dynamic.OpPlace, dynamic.OpRemove:
		t := int64(s.Topic)
		doc.Topic = &t
		for _, v := range s.Subs {
			doc.Subs = append(doc.Subs, int64(v))
		}
	}
	return doc
}
func workloadToDocReference(w *workload.Workload) workloadDoc {
	doc := workloadDoc{
		Rates:      w.Rates(),
		SubOffsets: make([]int64, 0, w.NumSubscribers()+1),
		SubTopics:  make([]int64, 0, w.NumPairs()),
	}
	if doc.Rates == nil {
		doc.Rates = []int64{}
	}
	doc.SubOffsets = append(doc.SubOffsets, 0)
	for v := 0; v < w.NumSubscribers(); v++ {
		for _, t := range w.Topics(workload.SubID(v)) {
			doc.SubTopics = append(doc.SubTopics, int64(t))
		}
		doc.SubOffsets = append(doc.SubOffsets, int64(len(doc.SubTopics)))
	}
	if w.HasRegions() {
		doc.TopicRegions = w.TopicRegions()
		doc.SubRegions = w.SubscriberRegions()
	}
	return doc
}
func allocToDocReference(a *core.Allocation) []vmDoc {
	docs := make([]vmDoc, 0, len(a.VMs))
	for _, vm := range a.VMs {
		d := vmDoc{Instance: instToDoc(vm.Instance), Capacity: vm.CapacityBytesPerHour}
		for _, p := range vm.Placements {
			pd := placementDoc{Topic: int64(p.Topic), Subs: make([]int64, 0, len(p.Subs))}
			for _, v := range p.Subs {
				pd.Subs = append(pd.Subs, int64(v))
			}
			d.Placements = append(d.Placements, pd)
		}
		docs = append(docs, d)
	}
	return docs
}

// churnPlan is one epoch of a 1%-churn steady state on a Twitter-like
// trace at the given tracegen scale (0.05 gives ~130k pairs, the size of
// the pipeline benchmark's churn workload): the incremental plan from the
// solved base state, with ~1.3k steps and a full target state.
func churnPlan(tb testing.TB, scale float64) *deploy.Plan {
	tb.Helper()
	w, err := tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(scale))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultConfig(100, experiments.ModelFor(pricing.C3Large, w))
	cfg.Fleet = experiments.FleetFor(w)
	res, err := core.Solve(w, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	prov, err := deploy.NewState(w, res.Allocation).Provisioner(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	delta := experiments.ChurnDelta(rand.New(rand.NewSource(1)), w, 0.01)
	plan, err := deploy.PlanIncremental(context.Background(), cfg, prov, delta)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// hostileName exercises every branch of the JSON string escaper: quotes
// and backslashes, the short escapes, other control bytes, DEL, the
// HTML-sensitive bytes, U+2028/U+2029, valid multi-byte runes, and
// invalid UTF-8 (a lone continuation byte, a truncated sequence).
const hostileName = "a\"b\\c\b\f\n\r\t\x00\x01\x1f\x7f<script>&amp;\u2028\u2029é日本\xff\xe6\x97 end"

// encoderPlans are the plans the encoder is checked on: the golden plan,
// a churn-size incremental plan, regioned fleets and workloads, the empty
// snapshot (no fleet or steps, empty workload and allocation), a plan
// with hostile instance names, region tags and fingerprint, and a target
// VM with no placements next to a placement with no subscribers.
func encoderPlans(t *testing.T) map[string]*deploy.Plan {
	t.Helper()
	plans := map[string]*deploy.Plan{"golden": goldenPlan(t)}

	scale := 0.05
	if testing.Short() {
		scale = 0.01
	}
	plans["churn"] = churnPlan(t, scale)

	empty, err := deploy.Snapshot(core.DefaultConfig(10, pricing.NewModel(pricing.C3Large)), deploy.EmptyState())
	if err != nil {
		t.Fatal(err)
	}
	empty.Fleet = pricing.Fleet{} // a plan without a catalog: "fleet": null
	plans["empty"] = empty

	regioned := goldenPlan(t)
	rw, err := regioned.Target.Workload.WithRegions([]int32{0, 1, 2}, []int32{2, 1, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	regioned.Target = deploy.NewState(rw, regioned.Target.Allocation)
	types := make([]pricing.InstanceType, regioned.Fleet.Len())
	caps := make([]int64, regioned.Fleet.Len())
	for i := range types {
		types[i] = regioned.Fleet.Type(i)
		types[i].Region = []string{"us-east", "eu-west"}[i%2]
		caps[i] = regioned.Fleet.Capacity(i)
	}
	if regioned.Fleet, err = pricing.NewFleetWithCapacities(types, caps); err != nil {
		t.Fatal(err)
	}
	plans["regioned"] = regioned

	hostile := goldenPlan(t)
	hostile.BaseFingerprint = hostileName
	hostile.Model.Instance.Name = hostileName
	hostile.Model.Instance.Region = hostileName
	hostile.Model.CapacityOverrideBytesPerHour = 0
	hostile.Model.PerGB = pricing.MinMicroUSD
	hostile.CostBefore = pricing.MaxMicroUSD
	hostile.CostAfter = -1
	hostile.Diff.Delta.RateChanges = map[workload.TopicID]int64{2: 7, 0: 9, 1: -4}
	hostile.Diff.Delta.Unsubscribe = []workload.Pair{{Topic: 2, Sub: 1}, {Topic: 0, Sub: 3}, {Topic: 2, Sub: 0}}
	hostile.Diff.Delta.NewSubscribers = 0
	hostile.Diff.Delta.NewTopics = nil
	alloc := &core.Allocation{Fleet: hostile.Target.Allocation.Fleet, MessageBytes: hostile.Target.Allocation.MessageBytes}
	for i, vm := range hostile.Target.Allocation.VMs {
		cp := *vm
		cp.Instance.Name = hostileName + string(rune('0'+i))
		cp.Instance.Region = "\u2029"
		alloc.VMs = append(alloc.VMs, &cp)
	}
	alloc.VMs = append(alloc.VMs,
		&core.VM{ID: len(alloc.VMs), Instance: pricing.C3Large, CapacityBytesPerHour: 1},
		&core.VM{ID: len(alloc.VMs) + 1, Instance: pricing.C3Large, CapacityBytesPerHour: 1,
			Placements: []core.TopicPlacement{{Topic: 1, Subs: []workload.SubID{}}}})
	hostile.Target = deploy.NewState(hostile.Target.Workload, alloc)
	hostile.Steps = append(hostile.Steps, dynamic.Step{Op: dynamic.OpRetireVM, VM: 9},
		dynamic.Step{Op: dynamic.OpBootVM, VM: 9, Instance: pricing.InstanceType{Name: hostileName, HourlyRate: -5}, Capacity: 3})
	plans["hostile"] = hostile
	return plans
}

// TestEncodePlanMatchesReference pins the encoder to json.MarshalIndent's
// bytes on every plan shape the format has.
func TestEncodePlanMatchesReference(t *testing.T) {
	for name, plan := range encoderPlans(t) {
		t.Run(name, func(t *testing.T) {
			var want bytes.Buffer
			if err := writePlanReference(plan, &want); err != nil {
				t.Fatal(err)
			}
			got, err := encodePlan(plan)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				i := 0
				for i < len(got) && i < want.Len() && got[i] == want.Bytes()[i] {
					i++
				}
				lo := max(0, i-80)
				t.Fatalf("encoder diverges from MarshalIndent at byte %d of %d/%d:\ngot:  %q\nwant: %q",
					i, len(got), want.Len(), got[lo:min(len(got), i+80)], want.Bytes()[lo:min(want.Len(), i+80)])
			}
			if hint := planSizeHint(plan); hint < len(got)-1 {
				t.Errorf("size hint %d below the %d bytes written", hint, len(got))
			}
			// The journal codec and the file writer emit the same bytes.
			body, err := PlanJournalCodec().EncodePlan(plan)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, got) {
				t.Fatal("journal codec bytes differ from the encoder's")
			}
		})
	}
}

// TestAppendJSONString checks the string escaper against encoding/json
// on strings built from every byte value and the runes it special-cases.
func TestAppendJSONString(t *testing.T) {
	cases := []string{"", hostileName, "\u2028\u2029\u2027\u202a", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\xc3"}
	var all []byte
	for c := 0; c < 256; c++ {
		all = append(all, byte(c))
		cases = append(cases, string([]byte{byte(c)}), "x"+string([]byte{byte(c)})+"é")
	}
	cases = append(cases, string(all))
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestAppendInt checks the in-place digit writer against strconv around
// every digit-count boundary, past its fast range, and with and without
// spare capacity in the buffer.
func TestAppendInt(t *testing.T) {
	vs := []int64{math.MinInt64, math.MaxInt64, -1e9, -1}
	for v := int64(0); v < 1000; v++ {
		vs = append(vs, v)
	}
	for p := int64(10); p > 0 && p <= 1e18; p *= 10 {
		vs = append(vs, p-1, p, p+1, -p)
	}
	for _, v := range vs {
		want := strconv.AppendInt([]byte("x"), v, 10)
		if got := appendInt([]byte("x"), v); !bytes.Equal(got, want) {
			t.Errorf("appendInt(%d) without room = %s, want %s", v, got, want)
		}
		roomy := append(make([]byte, 0, 32), 'x')
		if got := appendInt(roomy, v); !bytes.Equal(got, want) {
			t.Errorf("appendInt(%d) with room = %s, want %s", v, got, want)
		}
	}
}

// FuzzWritePlan: whenever ReadPlan accepts the input, the encoder must
// write exactly what the reflection-based reference writes for the
// parsed plan.
func FuzzWritePlan(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "plan_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"format":"mcss-plan","version":1,"base_fingerprint":"<\u2028>","tau":1,"message_bytes":1,` +
		`"fleet":[],"steps":[],"diff":{"rate_changes":[[0,3]],"subscribe":[[0,0]]},` +
		`"model":{"instance":{"name":"\u00e9\ufffd","hourly_rate":1.5,"link_mbps":0,"region":"r"},"per_gb":"-0.000001"},` +
		`"target":{"workload":{"rates":[1],"sub_offsets":[0,1],"sub_topics":[0],"topic_regions":[3],"sub_regions":[0]},` +
		`"allocation":[{"instance":{"name":"x","hourly_rate":"0","link_mbps":1},"capacity_bytes_per_hour":5,` +
		`"placements":[{"topic":0,"subs":[0]}]}]}}`))
	f.Add([]byte(`{"format":"mcss-plan","version":1,"base_fingerprint":"x","tau":1,"message_bytes":1,` +
		`"target":{"workload":{"rates":[],"sub_offsets":[0],"sub_topics":[]},"allocation":[]}}`))

	f.Fuzz(func(t *testing.T, input []byte) {
		plan, err := ReadPlan(bytes.NewReader(input))
		if err != nil {
			return
		}
		var want bytes.Buffer
		if err := writePlanReference(plan, &want); err != nil {
			t.Fatalf("reference rejects a parsed plan: %v", err)
		}
		got, err := encodePlan(plan)
		if err != nil {
			t.Fatalf("encoder rejects a parsed plan: %v", err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("encoder and reference differ:\ngot:\n%s\nwant:\n%s", got, want.Bytes())
		}
	})
}

// BenchmarkWritePlan encodes one churn-steady-size plan (~130k target
// pairs, ~1.3k steps) as the journal's plan-begin body; the reference
// sub-benchmark is the MarshalIndent writer it replaced.
func BenchmarkWritePlan(b *testing.B) {
	plan := churnPlan(b, 0.05)
	b.Run("encoder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, err := encodePlan(plan)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := writePlanReference(plan, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}
