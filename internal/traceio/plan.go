package traceio

import (
	"cmp"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Plan format (version 1): a deployment plan as one JSON document — the
// durable, reviewable artifact of the Spec → Plan → Diff → Apply
// lifecycle. The document is deliberately map-free (rate changes and
// interest diffs are sorted arrays) so serialization is deterministic and
// plan files diff cleanly under review; money fields are decimal USD
// strings (pricing.MicroUSD's text form). Files ending in ".gz" are
// transparently (de)compressed.
//
// The error contract mirrors the timeline codec: bytes that are not a
// well-formed document of this format fail with ErrBadFormat, while a
// document that parses but describes a structurally unusable plan (bad
// references, inconsistent shapes, wrong version) fails with
// deploy.ErrInvalidPlan — the same error WritePlan/SavePlan reject it with
// before anything hits the wire. Hostile documents must never panic and
// never force allocations past the actual input size.

const planFormat = "mcss-plan"

// planDoc is the document's schema. ReadPlan decodes into it; the writer
// (encodePlan) emits the same layout without building one.
type planDoc struct {
	Format          string           `json:"format"`
	Version         int              `json:"version"`
	BaseFingerprint string           `json:"base_fingerprint"`
	Tau             int64            `json:"tau"`
	MessageBytes    int64            `json:"message_bytes"`
	Model           modelDoc         `json:"model"`
	Fleet           []fleetTypeDoc   `json:"fleet"`
	Diff            diffDoc          `json:"diff"`
	CostBefore      pricing.MicroUSD `json:"cost_before"`
	CostAfter       pricing.MicroUSD `json:"cost_after"`
	Steps           []stepDoc        `json:"steps"`
	Target          targetDoc        `json:"target"`
}

type instanceDoc struct {
	Name       string           `json:"name"`
	HourlyRate pricing.MicroUSD `json:"hourly_rate"`
	LinkMbps   int64            `json:"link_mbps"`
	Region     string           `json:"region,omitempty"`
}

type modelDoc struct {
	Instance         instanceDoc      `json:"instance"`
	Hours            int64            `json:"hours"`
	PerGB            pricing.MicroUSD `json:"per_gb"`
	CapacityOverride int64            `json:"capacity_override_bytes_per_hour,omitempty"`
}

type fleetTypeDoc struct {
	instanceDoc
	Capacity int64 `json:"capacity_bytes_per_hour"`
}

// pairDoc is one [topic, subscriber] pair.
type pairDoc [2]int64

type diffDoc struct {
	NewTopics      []int64   `json:"new_topics,omitempty"`
	NewSubscribers int       `json:"new_subscribers,omitempty"`
	RateChanges    []pairDoc `json:"rate_changes,omitempty"` // [topic, new rate], topic-ascending
	Subscribe      []pairDoc `json:"subscribe,omitempty"`
	Unsubscribe    []pairDoc `json:"unsubscribe,omitempty"`

	PairsMoved int64 `json:"pairs_moved"`
	PairsKept  int64 `json:"pairs_kept"`
	VMsBefore  int   `json:"vms_before"`
	VMsAfter   int   `json:"vms_after"`
}

type stepDoc struct {
	Op       string       `json:"op"`
	VM       int          `json:"vm"`
	Instance *instanceDoc `json:"instance,omitempty"`
	Capacity int64        `json:"capacity_bytes_per_hour,omitempty"`
	Topic    *int64       `json:"topic,omitempty"`
	Subs     []int64      `json:"subs,omitempty"`
}

type workloadDoc struct {
	Rates      []int64 `json:"rates"`
	SubOffsets []int64 `json:"sub_offsets"`
	SubTopics  []int64 `json:"sub_topics"`
	// Optional region tags; both present or both absent.
	TopicRegions []int32 `json:"topic_regions,omitempty"`
	SubRegions   []int32 `json:"sub_regions,omitempty"`
}

type placementDoc struct {
	Topic int64   `json:"topic"`
	Subs  []int64 `json:"subs"`
}

type vmDoc struct {
	Instance   instanceDoc    `json:"instance"`
	Capacity   int64          `json:"capacity_bytes_per_hour"`
	Placements []placementDoc `json:"placements,omitempty"`
}

type targetDoc struct {
	Workload   workloadDoc `json:"workload"`
	Allocation []vmDoc     `json:"allocation"`
}

// WritePlan validates the plan and serializes it as an indented JSON
// document. A structurally invalid plan is rejected with
// deploy.ErrInvalidPlan before anything is written. Workload names are not
// part of the format: plans address topics and subscribers by dense ID,
// like every other codec in this package.
func WritePlan(p *deploy.Plan, out io.Writer) error {
	b, err := encodePlan(p)
	if err != nil {
		return err
	}
	_, err = out.Write(b)
	return err
}

// ReadPlan parses a plan document and rebuilds a validated deploy.Plan.
// Bytes that are not well-formed JSON of this format fail with
// ErrBadFormat; a document that parses but violates the plan invariants
// fails with deploy.ErrInvalidPlan.
func ReadPlan(in io.Reader) (*deploy.Plan, error) {
	dec := json.NewDecoder(in)
	var doc planDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: plan document: %v", ErrBadFormat, err)
	}
	if doc.Format != planFormat {
		return nil, fmt.Errorf("%w: bad plan format %q", ErrBadFormat, doc.Format)
	}

	w, err := workloadFromDoc(doc.Target.Workload)
	if err != nil {
		return nil, fmt.Errorf("%w: target workload: %v", deploy.ErrInvalidPlan, err)
	}
	model := pricing.Model{
		Instance:                     instFromDoc(doc.Model.Instance),
		Hours:                        doc.Model.Hours,
		PerGB:                        doc.Model.PerGB,
		CapacityOverrideBytesPerHour: doc.Model.CapacityOverride,
	}
	var fleet pricing.Fleet
	if len(doc.Fleet) > 0 {
		types := make([]pricing.InstanceType, len(doc.Fleet))
		caps := make([]int64, len(doc.Fleet))
		for i, ft := range doc.Fleet {
			types[i] = instFromDoc(ft.instanceDoc)
			caps[i] = ft.Capacity
		}
		fleet, err = pricing.NewFleetWithCapacities(types, caps)
		if err != nil {
			return nil, fmt.Errorf("%w: fleet: %v", deploy.ErrInvalidPlan, err)
		}
	}
	alloc, err := allocFromDoc(doc.Target.Allocation, w, doc.MessageBytes, fleet)
	if err != nil {
		return nil, fmt.Errorf("%w: target allocation: %v", deploy.ErrInvalidPlan, err)
	}
	diff, err := diffFromDoc(doc.Diff)
	if err != nil {
		return nil, fmt.Errorf("%w: diff: %v", deploy.ErrInvalidPlan, err)
	}
	plan := &deploy.Plan{
		Version:         doc.Version,
		BaseFingerprint: doc.BaseFingerprint,
		Tau:             doc.Tau,
		MessageBytes:    doc.MessageBytes,
		Model:           model,
		Fleet:           fleet,
		Diff:            diff,
		CostBefore:      doc.CostBefore,
		CostAfter:       doc.CostAfter,
		Target:          deploy.NewState(w, alloc),
	}
	for i, sd := range doc.Steps {
		s, err := stepFromDoc(sd)
		if err != nil {
			return nil, fmt.Errorf("%w: step %d: %v", deploy.ErrInvalidPlan, i, err)
		}
		plan.Steps = append(plan.Steps, s)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// SavePlan writes a validated plan to path; a ".gz" suffix enables gzip.
func SavePlan(p *deploy.Plan, path string) (err error) {
	// Encode (which validates) before creating the file so a bad plan
	// does not truncate an existing good one.
	b, err := encodePlan(p)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	var out io.Writer = f
	if strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(f)
		defer func() {
			if cerr := gz.Close(); err == nil {
				err = cerr
			}
		}()
		out = gz
	}
	_, err = out.Write(b)
	return err
}

// LoadPlan reads a validated plan from path, transparently decompressing
// ".gz" files.
func LoadPlan(path string) (*deploy.Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var in io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, err
		}
		defer gz.Close()
		in = gz
	}
	return ReadPlan(in)
}

func instToDoc(it pricing.InstanceType) instanceDoc {
	return instanceDoc{Name: it.Name, HourlyRate: it.HourlyRate, LinkMbps: it.LinkMbps, Region: it.Region}
}

func instFromDoc(d instanceDoc) pricing.InstanceType {
	return pricing.InstanceType{Name: d.Name, HourlyRate: d.HourlyRate, LinkMbps: d.LinkMbps, Region: d.Region}
}

func diffFromDoc(doc diffDoc) (deploy.Diff, error) {
	d := deploy.Diff{
		Delta: dynamic.Delta{
			NewTopics:      doc.NewTopics,
			NewSubscribers: doc.NewSubscribers,
		},
		Stats: dynamic.MigrationStats{
			PairsMoved: doc.PairsMoved,
			PairsKept:  doc.PairsKept,
			VMsBefore:  doc.VMsBefore,
			VMsAfter:   doc.VMsAfter,
		},
	}
	if len(doc.RateChanges) > 0 {
		d.Delta.RateChanges = make(map[workload.TopicID]int64, len(doc.RateChanges))
		for _, rc := range doc.RateChanges {
			t, err := asTopicID(rc[0])
			if err != nil {
				return deploy.Diff{}, err
			}
			d.Delta.RateChanges[t] = rc[1]
		}
	}
	var err error
	if d.Delta.Subscribe, err = pairsFromDocs(doc.Subscribe); err != nil {
		return deploy.Diff{}, err
	}
	if d.Delta.Unsubscribe, err = pairsFromDocs(doc.Unsubscribe); err != nil {
		return deploy.Diff{}, err
	}
	return d, nil
}

func pairsFromDocs(docs []pairDoc) ([]workload.Pair, error) {
	var out []workload.Pair
	for _, pd := range docs {
		t, err := asTopicID(pd[0])
		if err != nil {
			return nil, err
		}
		v, err := asSubID(pd[1])
		if err != nil {
			return nil, err
		}
		out = append(out, workload.Pair{Topic: t, Sub: v})
	}
	return out, nil
}

func asTopicID(v int64) (workload.TopicID, error) {
	if v < 0 || v > math.MaxInt32 {
		return 0, fmt.Errorf("topic id %d out of range", v)
	}
	return workload.TopicID(v), nil
}

func asSubID(v int64) (workload.SubID, error) {
	if v < 0 || v > math.MaxInt32 {
		return 0, fmt.Errorf("subscriber id %d out of range", v)
	}
	return workload.SubID(v), nil
}

func stepFromDoc(doc stepDoc) (dynamic.Step, error) {
	s := dynamic.Step{Op: dynamic.StepOp(doc.Op), VM: doc.VM}
	switch s.Op {
	case dynamic.OpBootVM:
		if doc.Instance != nil {
			s.Instance = instFromDoc(*doc.Instance)
		}
		s.Capacity = doc.Capacity
	case dynamic.OpRetireVM:
	case dynamic.OpPlace, dynamic.OpRemove:
		if doc.Topic == nil {
			return dynamic.Step{}, fmt.Errorf("%s step without a topic", doc.Op)
		}
		t, err := asTopicID(*doc.Topic)
		if err != nil {
			return dynamic.Step{}, err
		}
		s.Topic = t
		for _, v := range doc.Subs {
			sv, err := asSubID(v)
			if err != nil {
				return dynamic.Step{}, err
			}
			s.Subs = append(s.Subs, sv)
		}
	default:
		return dynamic.Step{}, fmt.Errorf("unknown op %q", doc.Op)
	}
	return s, nil
}

func workloadFromDoc(doc workloadDoc) (*workload.Workload, error) {
	rates := doc.Rates
	if rates == nil {
		rates = []int64{}
	}
	subTopics := make([]workload.TopicID, 0, len(doc.SubTopics))
	for _, t := range doc.SubTopics {
		tid, err := asTopicID(t)
		if err != nil {
			return nil, err
		}
		subTopics = append(subTopics, tid)
	}
	subOff := doc.SubOffsets
	if len(subOff) == 0 {
		subOff = []int64{0}
	}
	w, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil {
		return nil, err
	}
	if doc.TopicRegions != nil || doc.SubRegions != nil {
		return w.WithRegions(doc.TopicRegions, doc.SubRegions)
	}
	return w, nil
}

// allocFromDoc rebuilds the allocation, recomputing the bandwidth
// accounting from the target workload's rates (derived fields are not on
// the wire, so a tampered file cannot smuggle inconsistent accounting).
func allocFromDoc(docs []vmDoc, w *workload.Workload, messageBytes int64, fleet pricing.Fleet) (*core.Allocation, error) {
	alloc := &core.Allocation{Fleet: fleet, MessageBytes: messageBytes}
	for i, d := range docs {
		vm := &core.VM{
			ID:                   i,
			Instance:             instFromDoc(d.Instance),
			CapacityBytesPerHour: d.Capacity,
		}
		for _, pd := range d.Placements {
			t, err := asTopicID(pd.Topic)
			if err != nil {
				return nil, fmt.Errorf("vm %d: %v", i, err)
			}
			if int(t) >= w.NumTopics() {
				return nil, fmt.Errorf("vm %d serves topic %d of %d", i, t, w.NumTopics())
			}
			subs := make([]workload.SubID, 0, len(pd.Subs))
			for _, sv := range pd.Subs {
				v, err := asSubID(sv)
				if err != nil {
					return nil, fmt.Errorf("vm %d: %v", i, err)
				}
				if int(v) >= w.NumSubscribers() {
					return nil, fmt.Errorf("vm %d serves subscriber %d of %d", i, v, w.NumSubscribers())
				}
				subs = append(subs, v)
			}
			rb := w.Rate(t) * messageBytes
			vm.Placements = append(vm.Placements, core.TopicPlacement{Topic: t, Subs: subs})
			vm.InBytesPerHour += rb
			vm.OutBytesPerHour += rb * int64(len(subs))
		}
		alloc.VMs = append(alloc.VMs, vm)
	}
	return alloc, nil
}

// encodePlan validates the plan and returns its document: the one encoder
// behind WritePlan, SavePlan and the journal codec. It writes exactly the
// bytes json.MarshalIndent(planDoc, "", "  ") does, plus a newline, but
// walks the plan directly into one buffer sized up front: no reflection
// and no intermediate planDoc, whose per-pair slices a churn-size plan
// would otherwise copy twice. planDoc's tags define the layout the
// encoder follows (field order, omitempty, null for an empty fleet or
// step list) and ReadPlan parses.
func encodePlan(p *deploy.Plan) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := planEncoder{b: make([]byte, 0, planSizeHint(p))}
	e.plan(p)
	return append(e.b, '\n'), nil
}

// planEncoder appends an indented JSON document. It tracks only the
// nesting depth and whether the innermost open object or array is still
// empty, which is all MarshalIndent's layout depends on: each member on
// its own line, two spaces per level, and "{}" / "[]" when empty.
type planEncoder struct {
	b     []byte
	depth int
	empty bool
}

// planSep is a member separator: a comma, a line break, and indentation
// covering the deepest nesting of the plan schema (a placement's
// subscribers sit at depth 7).
const planSep = ",\n                "

func (e *planEncoder) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
	e.empty = true
}

func (e *planEncoder) close(c byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.b = append(e.b, c)
	e.empty = false
}

func (e *planEncoder) newline() {
	e.b = append(e.b, planSep[1:2+2*e.depth]...)
}

// elem starts the next member of the innermost object or array.
func (e *planEncoder) elem() {
	if !e.empty {
		e.b = append(e.b, ',')
	}
	e.empty = false
	e.newline()
}

func (e *planEncoder) key(k string) {
	e.elem()
	e.b = append(e.b, '"')
	e.b = append(e.b, k...)
	e.b = append(e.b, '"', ':', ' ')
}

func (e *planEncoder) num(k string, v int64) {
	e.key(k)
	e.b = appendInt(e.b, v)
}

func (e *planEncoder) text(k, v string) {
	e.key(k)
	e.b = appendJSONString(e.b, v)
}

// money writes MicroUSD's JSON form, its decimal text quoted.
func (e *planEncoder) money(k string, m pricing.MicroUSD) {
	e.key(k)
	t, _ := m.MarshalText() // never fails
	e.b = append(e.b, '"')
	e.b = append(e.b, t...)
	e.b = append(e.b, '"')
}

func (e *planEncoder) null(k string) {
	e.key(k)
	e.b = append(e.b, "null"...)
}

// ints writes vs as members of the open array, one per line. It is the
// encoder's hot loop — the target's CSR and placements are nearly all of
// a large plan — so each member costs one separator copy and an in-place
// digit write.
func ints[T ~int32 | ~int64](e *planEncoder, vs []T) {
	if len(vs) == 0 {
		return
	}
	e.elem()
	sep, b := planSep[:2+2*e.depth], appendInt(e.b, int64(vs[0]))
	for _, v := range vs[1:] {
		b = append(b, sep...)
		b = appendInt(b, int64(v))
	}
	e.b = b
}

// digitPairs holds the two-digit decimal forms of 00 through 99.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// appendInt appends v in decimal, exactly like strconv.AppendInt(b, v, 10).
// Values in [0, 1e9) — every ID, offset and rate of a realistic plan —
// are written in place two digits at a time when b has room.
func appendInt(b []byte, v int64) []byte {
	if v < 0 || v >= 1e9 {
		return strconv.AppendInt(b, v, 10)
	}
	n := 1
	for p := int64(10); p <= v; p *= 10 {
		n++
	}
	l := len(b)
	if cap(b)-l < n {
		return strconv.AppendInt(b, v, 10)
	}
	b = b[:l+n]
	u, i := uint32(v), l+n
	for u >= 100 {
		r := u % 100
		u /= 100
		i -= 2
		b[i], b[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if u >= 10 {
		b[i-2], b[i-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return b
}

// intArray writes a keyed array of vs; omitEmpty drops the key when vs is
// empty, like an omitempty slice.
func intArray[T ~int32 | ~int64](e *planEncoder, k string, vs []T, omitEmpty bool) {
	if omitEmpty && len(vs) == 0 {
		return
	}
	e.key(k)
	e.open('[')
	ints(e, vs)
	e.close(']')
}

func (e *planEncoder) plan(p *deploy.Plan) {
	e.open('{')
	e.text("format", planFormat)
	e.num("version", int64(p.Version))
	e.text("base_fingerprint", p.BaseFingerprint)
	e.num("tau", p.Tau)
	e.num("message_bytes", p.MessageBytes)

	e.key("model")
	e.open('{')
	e.key("instance")
	e.instance(p.Model.Instance)
	e.num("hours", p.Model.Hours)
	e.money("per_gb", p.Model.PerGB)
	if c := p.Model.CapacityOverrideBytesPerHour; c != 0 {
		e.num("capacity_override_bytes_per_hour", c)
	}
	e.close('}')

	if p.Fleet.Len() == 0 {
		e.null("fleet")
	} else {
		e.key("fleet")
		e.open('[')
		for i := 0; i < p.Fleet.Len(); i++ {
			e.elem()
			e.open('{')
			e.instanceFields(p.Fleet.Type(i))
			e.num("capacity_bytes_per_hour", p.Fleet.Capacity(i))
			e.close('}')
		}
		e.close(']')
	}

	e.key("diff")
	e.diff(p.Diff)
	e.money("cost_before", p.CostBefore)
	e.money("cost_after", p.CostAfter)

	if len(p.Steps) == 0 {
		e.null("steps")
	} else {
		e.key("steps")
		e.open('[')
		for _, s := range p.Steps {
			e.step(s)
		}
		e.close(']')
	}

	e.key("target")
	e.open('{')
	e.key("workload")
	e.workload(p.Target.Workload)
	e.key("allocation")
	e.allocation(p.Target.Allocation)
	e.close('}')
	e.close('}')
}

func (e *planEncoder) instance(it pricing.InstanceType) {
	e.open('{')
	e.instanceFields(it)
	e.close('}')
}

// instanceFields writes instanceDoc's members into the open object (the
// fleet entries embed them).
func (e *planEncoder) instanceFields(it pricing.InstanceType) {
	e.text("name", it.Name)
	e.money("hourly_rate", it.HourlyRate)
	e.num("link_mbps", it.LinkMbps)
	if it.Region != "" {
		e.text("region", it.Region)
	}
}

func (e *planEncoder) diff(d deploy.Diff) {
	e.open('{')
	intArray(e, "new_topics", d.Delta.NewTopics, true)
	if d.Delta.NewSubscribers != 0 {
		e.num("new_subscribers", int64(d.Delta.NewSubscribers))
	}
	if len(d.Delta.RateChanges) > 0 {
		rcs := make([][2]int64, 0, len(d.Delta.RateChanges))
		for t, r := range d.Delta.RateChanges {
			rcs = append(rcs, [2]int64{int64(t), r})
		}
		slices.SortFunc(rcs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		e.pairs("rate_changes", rcs)
	}
	e.pairList("subscribe", d.Delta.Subscribe)
	e.pairList("unsubscribe", d.Delta.Unsubscribe)
	e.num("pairs_moved", d.Stats.PairsMoved)
	e.num("pairs_kept", d.Stats.PairsKept)
	e.num("vms_before", int64(d.Stats.VMsBefore))
	e.num("vms_after", int64(d.Stats.VMsAfter))
	e.close('}')
}

// pairList writes topic–subscriber pairs sorted by topic, then subscriber,
// omitting the key when there are none.
func (e *planEncoder) pairList(k string, ps []workload.Pair) {
	if len(ps) == 0 {
		return
	}
	sorted := make([][2]int64, len(ps))
	for i, p := range ps {
		sorted[i] = [2]int64{int64(p.Topic), int64(p.Sub)}
	}
	slices.SortFunc(sorted, func(a, b [2]int64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	e.pairs(k, sorted)
}

func (e *planEncoder) pairs(k string, ps [][2]int64) {
	e.key(k)
	e.open('[')
	for _, p := range ps {
		e.elem()
		e.open('[')
		ints(e, p[:])
		e.close(']')
	}
	e.close(']')
}

func (e *planEncoder) step(s dynamic.Step) {
	e.elem()
	e.open('{')
	e.text("op", string(s.Op))
	e.num("vm", int64(s.VM))
	switch s.Op {
	case dynamic.OpBootVM:
		e.key("instance")
		e.instance(s.Instance)
		if s.Capacity != 0 {
			e.num("capacity_bytes_per_hour", s.Capacity)
		}
	case dynamic.OpPlace, dynamic.OpRemove:
		e.num("topic", int64(s.Topic))
		intArray(e, "subs", s.Subs, true)
	}
	e.close('}')
}

func (e *planEncoder) workload(w *workload.Workload) {
	e.open('{')
	intArray(e, "rates", w.Rates(), false)

	e.key("sub_offsets")
	e.open('[')
	e.elem()
	e.b = append(e.b, '0')
	sep := planSep[:2+2*e.depth]
	var off int64
	for v := 0; v < w.NumSubscribers(); v++ {
		off += int64(w.Followings(workload.SubID(v)))
		e.b = append(e.b, sep...)
		e.b = appendInt(e.b, off)
	}
	e.close(']')

	e.key("sub_topics")
	e.open('[')
	for v := 0; v < w.NumSubscribers(); v++ {
		ints(e, w.Topics(workload.SubID(v)))
	}
	e.close(']')

	intArray(e, "topic_regions", w.TopicRegions(), true)
	intArray(e, "sub_regions", w.SubscriberRegions(), true)
	e.close('}')
}

func (e *planEncoder) allocation(a *core.Allocation) {
	e.open('[')
	for _, vm := range a.VMs {
		e.elem()
		e.open('{')
		e.key("instance")
		e.instance(vm.Instance)
		e.num("capacity_bytes_per_hour", vm.CapacityBytesPerHour)
		if len(vm.Placements) > 0 {
			e.key("placements")
			e.open('[')
			for _, p := range vm.Placements {
				e.elem()
				e.open('{')
				e.num("topic", int64(p.Topic))
				intArray(e, "subs", p.Subs, false)
				e.close('}')
			}
			e.close(']')
		}
		e.close('}')
	}
	e.close(']')
}

// appendJSONString appends s as a JSON string the way encoding/json
// writes it: '"' and '\\' backslash-escaped, \b \f \n \r \t short-escaped,
// other control bytes and the HTML-sensitive '<', '>' and '&' as \u00XX,
// U+2028 and U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8
// as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// planSizeHint bounds the encoded size of p from its element counts: each
// array member costs its line break, its indentation and at most the
// digits of the widest value in its array. The target's topic lists, the
// bulk of a large plan, are sized exactly from the per-topic follower
// counts, so the encoder allocates once and wastes little.
func planSizeHint(p *deploy.Plan) int {
	var digits [20]byte
	member := func(depth int, maxVal int64) int {
		return 2 + 2*depth + len(strconv.AppendInt(digits[:0], maxVal, 10))
	}
	w, a := p.Target.Workload, p.Target.Allocation
	numT, numV, numP := int64(w.NumTopics()), int64(w.NumSubscribers()), w.NumPairs()
	n := 1024
	for t, r := range w.Rates() {
		// Topic t's rate, and its ID once per subscriber in sub_topics.
		n += member(4, r) + w.Followers(workload.TopicID(t))*member(4, int64(t))
	}
	n += int(numV+1) * member(4, numP)
	n += (len(w.TopicRegions()) + len(w.SubscriberRegions())) * member(4, math.MinInt32)
	n += p.Fleet.Len() * 256
	d := p.Diff.Delta
	n += len(d.NewTopics) * member(3, math.MinInt64)
	n += (len(d.RateChanges) + len(d.Subscribe) + len(d.Unsubscribe)) * (16 + 2*member(4, math.MinInt64))
	for _, s := range p.Steps {
		n += 128 + len(s.Subs)*member(4, numV)
		if s.Op == dynamic.OpBootVM {
			n += 256 + len(s.Instance.Name) + len(s.Instance.Region)
		}
	}
	for _, vm := range a.VMs {
		n += 256 + len(vm.Instance.Name) + len(vm.Instance.Region)
		for _, pl := range vm.Placements {
			n += 64 + member(6, numT) + len(pl.Subs)*member(7, numV)
		}
	}
	return n
}
