package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/deploy"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/elastic"
	"github.com/pubsub-systems/mcss/internal/experiments"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/timeline"
	"github.com/pubsub-systems/mcss/internal/tracegen"
	"github.com/pubsub-systems/mcss/internal/traceio"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Workload sizes, as tracegen.DefaultTwitterConfig scale factors at
// --scale 1: ~600k pairs for the cold solve (the size of the repository's
// BenchmarkEndToEndSolve), ~130k pairs for the epoch loops.
const (
	solveScale = 0.15
	epochScale = 0.05

	tau = 100
	// churnFrac is churn-steady's per-epoch delta size as a share of pairs.
	churnFrac = 0.01
	// churnPassEpochs is the length of one churn-steady pass: the run
	// replays the same seeded epochs from the bootstrap state, so a run
	// that ends on a pass boundary ends on the same state for its seed.
	churnPassEpochs = 32
	// journalSyncEvery and compactEvery are allocatord's journal defaults
	// (-journal-sync-every, -journal-compact-epochs).
	journalSyncEvery = 8
	compactEvery     = 8
)

// setupEnv is what every workload's setup receives.
type setupEnv struct {
	seed  int64
	scale float64
	dir   string // private directory for journals
	tr    *tracer
	c     *counters
	trace bool
}

// counters accumulates per-layer counts. Hooks add to the op-scoped
// fields only while an op runs, so set-up and checks do not count.
type counters struct {
	inOp bool

	retries      int64
	journalBytes int64
	fsyncs       int64

	incCalls    int64
	fallbacks   int64
	regretSum   float64
	repairPairs int64
	plans       int64
	planSteps   int64

	epochs    int64
	adopted   int64
	forced    int64
	keepAdded int64
}

// outcome is a run's final answer and its quality.
type outcome struct {
	fingerprint string
	cost        pricing.MicroUSD
	lowerBound  pricing.MicroUSD
	billUSD     float64
	selected    int64
	vms         int
}

// bench is one set-up workload. The runner calls startPass before each
// pass of passLen ops and passDone after it; per op it calls prepare
// (untimed), op (timed), then check (untimed). Nothing but op is timed.
type bench interface {
	passLen() int
	// startPass begins a pass on the input numbered input.
	startPass(ctx context.Context, input int) error
	prepare(ctx context.Context) error
	op(ctx context.Context) error
	// check verifies the last op's output and returns the pairs it moved.
	check(ctx context.Context) (moved int64, err error)
	// passDone returns the outcome of the pass that just ended.
	passDone(ctx context.Context) (outcome, error)
	// finish ends the run: it checks that the journal recovers the live
	// state.
	finish(ctx context.Context) error
	sizes() map[string]int64
	close()
}

type workloadSpec struct {
	name  string
	setup func(ctx context.Context, env *setupEnv) (bench, error)
}

// workloads are the benchmark's workloads; BENCHMARK.json and README.md
// say why each was chosen.
var workloads = []workloadSpec{
	{"solve-twitter", setupSolve},
	{"churn-steady", setupChurn},
	{"diurnal-replay", setupDiurnal},
}

// passSeed derives pass k's seed from the run's seed. Passes draw
// different inputs, so a run averages over several of them.
func (e *setupEnv) passSeed(k int) int64 {
	return rand.New(rand.NewSource(e.seed + int64(k)<<32)).Int63()
}

// twitter generates the Twitter-like base trace at the given scale. Its
// structure comes from the generator's default seed, the same in every
// run: cost and solve time on such a trace are dominated by its few
// hottest topics, so traces drawn from different seeds differ by up to 2×
// in cost, which would hide any regression under a bound. What --seed
// draws is stated per workload.
func twitter(env *setupEnv, scale float64) (*workload.Workload, error) {
	return tracegen.Twitter(tracegen.DefaultTwitterConfig().Scale(scale * env.scale))
}

// relabeling is a random permutation of topic and subscriber IDs: it
// presents an instance in another order without changing it.
type relabeling struct {
	topic []int // old topic ID → new
	sub   []int // new subscriber ID → old
}

func newRelabeling(w *workload.Workload, rng *rand.Rand) relabeling {
	return relabeling{topic: rng.Perm(w.NumTopics()), sub: rng.Perm(w.NumSubscribers())}
}

func (r relabeling) apply(w *workload.Workload) (*workload.Workload, error) {
	rates := make([]int64, w.NumTopics())
	for t, nt := range r.topic {
		rates[nt] = w.Rate(workload.TopicID(t))
	}
	off := make([]int64, 1, w.NumSubscribers()+1)
	topics := make([]workload.TopicID, 0, w.NumPairs())
	for _, v := range r.sub {
		start := len(topics)
		for _, t := range w.Topics(workload.SubID(v)) {
			topics = append(topics, workload.TopicID(r.topic[t]))
		}
		slices.Sort(topics[start:])
		off = append(off, int64(len(topics)))
	}
	return workload.FromCSR(rates, off, topics, nil, nil)
}

// verify runs the checks every op's output must pass: VerifyAllocation
// against the selection, LowerBound ≤ cost, and (when want is not empty)
// the live state's fingerprint equal to the plan's target fingerprint. It
// returns the state's fingerprint and lower bound.
//
// A nil selection verifies with VerifyServes instead: the elastic
// controller's kept epochs legitimately load VMs past the headroom-derated
// capacity they record, up to the true capacity in cfg.Fleet, which
// VerifyAllocation's per-VM capacity consistency check rejects by design.
func verify(env *setupEnv, w *workload.Workload, sel *core.Selection, alloc *core.Allocation, cfg core.Config, want string) (string, core.Bound, error) {
	i := env.tr.begin(spanVerify)
	var err error
	if sel != nil {
		err = core.VerifyAllocation(w, sel, alloc, cfg)
	} else {
		err = core.VerifyServes(w, alloc, cfg)
	}
	env.tr.end(i)
	if err != nil {
		return "", core.Bound{}, fmt.Errorf("verify: %w", err)
	}
	lb, err := core.LowerBound(w, cfg)
	if err != nil {
		return "", core.Bound{}, fmt.Errorf("lower bound: %w", err)
	}
	if cost := alloc.Cost(cfg.Model); lb.Cost > cost {
		return "", core.Bound{}, fmt.Errorf("lower bound %v above cost %v", lb.Cost, cost)
	}
	i = env.tr.begin(spanFingerprint)
	fp := dynamic.StateFingerprint(w, alloc)
	env.tr.end(i)
	if want != "" && fp != want {
		return "", core.Bound{}, fmt.Errorf("applied state %s, plan target %s", fp, want)
	}
	return fp, lb, nil
}

// journalRig is a journal opened with allocatord's defaults plus the
// retrying executor every journaled apply runs through.
type journalRig struct {
	path  string
	codec deploy.JournalCodec
	opts  deploy.JournalOptions
	j     *deploy.Journal
	exec  deploy.Executor
}

// newRig opens a fresh journal in env.dir. In a traced run the codec is
// wrapped to time plan encoding and the hooks count bytes and fsyncs.
func newRig(env *setupEnv, name string) (*journalRig, error) {
	codec := traceio.PlanJournalCodec()
	opts := deploy.JournalOptions{SyncEvery: journalSyncEvery}
	if env.trace {
		tr, c, encode := env.tr, env.c, codec.EncodePlan
		codec.EncodePlan = func(p *deploy.Plan) ([]byte, error) {
			i := tr.begin(spanEncode)
			defer tr.end(i)
			return encode(p)
		}
		opts.Hooks = deploy.JournalHooks{
			Appended: func(n int) {
				if c.inOp {
					c.journalBytes += int64(n)
				}
			},
			Fsync: func(sec float64) {
				tr.completed(spanFsync, time.Duration(sec*float64(time.Second)))
				if c.inOp {
					c.fsyncs++
				}
			},
		}
	}
	c := env.c
	exec := deploy.NewRetryExecutor(deploy.NopExecutor, deploy.RetryConfig{
		OnRetry: func(int, int, error) { c.retries++ },
	})
	r := &journalRig{path: filepath.Join(env.dir, name), codec: codec, opts: opts, exec: exec}
	return r, r.reset()
}

// reset replaces the journal with an empty one, as a daemon started on an
// empty data directory sees it.
func (r *journalRig) reset() error {
	if r.j != nil {
		if err := r.j.Close(); err != nil {
			return err
		}
		r.j = nil
	}
	if err := os.Remove(r.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	j, err := deploy.OpenJournal(r.path, r.codec, r.opts)
	r.j = j
	return err
}

func (r *journalRig) applyOptions(epoch int) []deploy.ApplyOption {
	return []deploy.ApplyOption{deploy.WithJournal(r.j), deploy.WithExecutor(r.exec), deploy.WithApplyEpoch(epoch)}
}

// compact checkpoints st as the journal's only record.
func (r *journalRig) compact(env *setupEnv, cfg core.Config, epoch int, st *deploy.State) error {
	i := env.tr.begin(spanCompact)
	defer env.tr.end(i)
	snap, err := deploy.Snapshot(cfg, st)
	if err != nil {
		return err
	}
	return r.j.Compact(int64(epoch), snap)
}

// recoverCheck closes the journal and checks that recovering it
// reproduces the live state's fingerprint.
func (r *journalRig) recoverCheck(live string) error {
	if err := r.j.Close(); err != nil {
		return err
	}
	r.j = nil
	rec, err := deploy.RecoverJournalFile(r.path, r.codec)
	if err != nil {
		return fmt.Errorf("journal recovery: %w", err)
	}
	if got := rec.State.Fingerprint(); got != live {
		return fmt.Errorf("journal recovers %s, live state is %s", got, live)
	}
	return nil
}

func (r *journalRig) close() {
	if r.j != nil {
		r.j.Close()
		r.j = nil
	}
	os.Remove(r.path)
}

// ---- solve-twitter ----------------------------------------------------

// solveBench is allocatord's solve mode: one op is one cold solve. Every
// op solves the same input, so each pass is one op.
type solveBench struct {
	env *setupEnv
	w   *workload.Workload
	cfg core.Config
	res *core.Result
	fp  string
	lb  core.Bound
}

// setupSolve builds the base trace relabeled by --seed.
func setupSolve(_ context.Context, env *setupEnv) (bench, error) {
	i := env.tr.begin(spanTracegen)
	w, err := twitter(env, solveScale)
	if err == nil {
		w, err = newRelabeling(w, rand.New(rand.NewSource(env.seed))).apply(w)
	}
	env.tr.end(i)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(tau, experiments.ModelFor(pricing.C3Large, w))
	if env.trace {
		cfg.Observer = env.tr.observer()
	}
	return &solveBench{env: env, w: w, cfg: cfg}, nil
}

func (b *solveBench) passLen() int                         { return 1 }
func (b *solveBench) startPass(context.Context, int) error { return nil }
func (b *solveBench) prepare(context.Context) error        { return nil }
func (b *solveBench) close()                               {}
func (b *solveBench) sizes() map[string]int64              { return map[string]int64{"pairs": b.w.NumPairs()} }
func (b *solveBench) op(ctx context.Context) (err error) {
	b.res, err = core.SolveContext(ctx, b.w, b.cfg)
	return err
}

func (b *solveBench) check(context.Context) (int64, error) {
	fp, lb, err := verify(b.env, b.w, b.res.Selection, b.res.Allocation, b.cfg, "")
	if err != nil {
		return 0, err
	}
	if b.fp != "" && fp != b.fp {
		return 0, fmt.Errorf("solve gave %s, an earlier solve of the same input gave %s", fp, b.fp)
	}
	b.fp, b.lb = fp, lb
	// A cold solve places every selected pair: its migration from the
	// empty cluster.
	return dynamic.MigrationStatsBetween(&core.Allocation{}, b.res.Allocation, b.cfg.Model).PairsMoved, nil
}

func (b *solveBench) passDone(context.Context) (outcome, error) {
	cost := b.res.Allocation.Cost(b.cfg.Model)
	return outcome{
		fingerprint: b.fp, cost: cost, lowerBound: b.lb.Cost, billUSD: cost.USD(),
		selected: b.res.Selection.NumPairs(), vms: b.res.Allocation.NumVMs(),
	}, nil
}

// finish journals the solved state as allocatord's solve mode does with
// -data-dir, and checks the journal recovers it.
func (b *solveBench) finish(context.Context) error {
	rig, err := newRig(b.env, "solve.journal")
	if err != nil {
		return err
	}
	defer rig.close()
	snap, err := deploy.Snapshot(b.cfg, deploy.NewState(b.w, b.res.Allocation))
	if err != nil {
		return err
	}
	if err := rig.j.AppendSnapshot(-1, snap); err != nil {
		return err
	}
	return rig.recoverCheck(b.fp)
}

// ---- churn-steady -----------------------------------------------------

// churnBench is the incremental steady state: one op is one epoch. Every
// pass starts from the bootstrap state and runs churnPassEpochs epochs of
// deltas drawn from the pass's seed.
type churnBench struct {
	env  *setupEnv
	cfg  core.Config
	w0   *workload.Workload
	res0 *core.Result // the bootstrap state every pass starts from
	fp0  string
	rig  *journalRig

	prov  *dynamic.Provisioner
	rng   *rand.Rand
	epoch int
	delta dynamic.Delta
	plan  *deploy.Plan
	moved int64
	fp    string
	lb    core.Bound
}

// setupChurn builds the base trace, solves it and applies the solve
// through the journal.
func setupChurn(ctx context.Context, env *setupEnv) (bench, error) {
	i := env.tr.begin(spanTracegen)
	w, err := twitter(env, epochScale)
	env.tr.end(i)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(tau, experiments.ModelFor(pricing.C3Large, w))
	cfg.Fleet = experiments.FleetFor(w)
	if env.trace {
		cfg.Observer = env.tr.observer()
	}
	res, err := core.SolveContext(ctx, w, cfg)
	if err != nil {
		return nil, fmt.Errorf("initial solve: %w", err)
	}
	rig, err := newRig(env, "churn.journal")
	if err != nil {
		return nil, err
	}
	prov, err := deploy.EmptyState().Provisioner(cfg)
	if err != nil {
		rig.close()
		return nil, err
	}
	plan, err := deploy.NewPlan(cfg, deploy.StateOf(prov), deploy.NewState(w, res.Allocation))
	if err == nil {
		_, err = deploy.Apply(ctx, plan, prov, rig.applyOptions(-1)...)
	}
	if err != nil {
		rig.close()
		return nil, fmt.Errorf("bootstrap apply: %w", err)
	}
	return &churnBench{
		env: env, cfg: cfg, w0: w, rig: rig,
		res0: &core.Result{Selection: prov.Selection(), Allocation: prov.Allocation()},
		fp0:  deploy.StateOf(prov).Fingerprint(),
	}, nil
}

func (b *churnBench) passLen() int { return churnPassEpochs }
func (b *churnBench) close()       { b.rig.close() }
func (b *churnBench) sizes() map[string]int64 {
	return map[string]int64{"pairs": b.w0.NumPairs(), "delta_pairs": int64(float64(b.w0.NumPairs()) * churnFrac)}
}

// startPass returns to the bootstrap state: a provisioner restored from
// it with its incremental index built, and the journal compacted to it.
func (b *churnBench) startPass(ctx context.Context, pass int) error {
	b.prov = dynamic.Restore(b.w0, b.res0, b.cfg)
	if fp := deploy.StateOf(b.prov).Fingerprint(); fp != b.fp0 {
		return fmt.Errorf("bootstrap state changed: %s, was %s", fp, b.fp0)
	}
	if _, err := b.prov.UpdateIncremental(ctx, dynamic.Delta{}); err != nil {
		return err
	}
	b.rng = rand.New(rand.NewSource(b.env.passSeed(pass)))
	b.epoch = 0
	return b.rig.compact(b.env, b.cfg, -1, deploy.StateOf(b.prov))
}

func (b *churnBench) prepare(context.Context) error {
	b.delta = experiments.ChurnDelta(b.rng, b.prov.Workload(), churnFrac)
	return nil
}

func (b *churnBench) op(ctx context.Context) error {
	env, c := b.env, b.env.c
	i := env.tr.begin(spanIncremental)
	next, res, stats, err := b.prov.PreviewIncremental(ctx, b.delta)
	env.tr.end(i)
	if err != nil {
		return err
	}
	c.incCalls++
	c.repairPairs += stats.PairsMoved
	c.regretSum += stats.RegretFrac
	if stats.Fallback {
		c.fallbacks++
	}

	// deploy.PlanIncremental's body, split so the plan is timed alone.
	i = env.tr.begin(spanPlan)
	b.plan, err = deploy.NewPlan(b.cfg, deploy.StateOf(b.prov), deploy.NewState(next, res.Allocation))
	env.tr.end(i)
	if err != nil {
		return err
	}
	c.plans++
	c.planSteps += int64(len(b.plan.Steps))

	i = env.tr.begin(spanApply)
	rep, err := deploy.Apply(ctx, b.plan, b.prov, b.rig.applyOptions(b.epoch)...)
	env.tr.end(i)
	if err != nil {
		return err
	}
	b.moved = rep.Stats.PairsMoved
	if (b.epoch+1)%compactEvery == 0 {
		if err := b.rig.compact(env, b.cfg, b.epoch, deploy.StateOf(b.prov)); err != nil {
			return err
		}
	}
	b.epoch++
	return nil
}

func (b *churnBench) check(context.Context) (int64, error) {
	fp, lb, err := verify(b.env, b.prov.Workload(), b.prov.Selection(), b.prov.Allocation(), b.cfg, b.plan.TargetFingerprint())
	b.fp, b.lb = fp, lb
	return b.moved, err
}

func (b *churnBench) passDone(context.Context) (outcome, error) {
	alloc := b.prov.Allocation()
	cost := alloc.Cost(b.cfg.Model)
	return outcome{
		fingerprint: b.fp, cost: cost, lowerBound: b.lb.Cost, billUSD: cost.USD(),
		selected: b.prov.Selection().NumPairs(), vms: alloc.NumVMs(),
	}, nil
}

func (b *churnBench) finish(context.Context) error { return b.rig.recoverCheck(b.fp) }

// ---- diurnal-replay ---------------------------------------------------

// diurnalBench is allocatord -diurnal -data-dir: one op is one Walk.Step,
// and every pass replays a day's timeline.
type diurnalBench struct {
	env    *setupEnv
	base   *workload.Workload
	policy elastic.Policy
	rig    *journalRig

	cfg       core.Config
	tl        *timeline.Timeline
	ctl       *elastic.Controller
	built     int // the pass the timeline and controller were built for
	wk        *elastic.Walk
	ep        elastic.EpochReport
	applySpan int
	fp        string
	lb        core.Bound
}

// setupDiurnal builds the base trace and the first pass's timeline, fleet
// and controller.
func setupDiurnal(_ context.Context, env *setupEnv) (bench, error) {
	i := env.tr.begin(spanTracegen)
	base, err := twitter(env, epochScale)
	env.tr.end(i)
	if err != nil {
		return nil, err
	}
	// The incremental preview stays off, as in allocatord's default: with
	// it, some timelines fail in Walk.Step (README.md, Known defects).
	policy := elastic.DefaultPolicy()
	rig, err := newRig(env, "diurnal.journal")
	if err != nil {
		return nil, err
	}
	b := &diurnalBench{env: env, base: base, policy: policy, rig: rig, applySpan: -1}
	if err := b.build(0); err != nil {
		rig.close()
		return nil, err
	}
	return b, nil
}

// build makes pass k's timeline: the base trace relabeled by the pass's
// seed, modulated by experiments.DiurnalModulation. The modulation draws
// its per-topic noise in ID order, so each relabeling is the same day with
// other noise. The fleet is calibrated to the timeline's envelope as
// allocatord does. The controller's apply hook journals every epoch; it
// fires as the epoch's deploy.Apply starts, and that Apply ends with the
// always-synced commit record, its last child span.
func (b *diurnalBench) build(pass int) error {
	env := b.env
	i := env.tr.begin(spanTracegen)
	w, err := newRelabeling(b.base, rand.New(rand.NewSource(env.passSeed(pass)))).apply(b.base)
	var tl *timeline.Timeline
	if err == nil {
		tl, err = tracegen.Diurnal(w, experiments.DiurnalModulation())
	}
	env.tr.end(i)
	if err != nil {
		return err
	}
	envelope, err := tl.Envelope()
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(tau, experiments.ModelFor(pricing.C3Large, envelope))
	cfg.Fleet = experiments.FleetFor(envelope)
	if env.trace {
		cfg.Observer = env.tr.observer()
	}
	ctl := elastic.NewController(cfg, b.policy)
	ctl.SetApplyHook(func(epoch int) []deploy.ApplyOption {
		b.applySpan = env.tr.begin(spanApply)
		return b.rig.applyOptions(epoch)
	})
	b.cfg, b.tl, b.ctl, b.built = cfg, tl, ctl, pass
	return nil
}

func (b *diurnalBench) passLen() int                  { return b.tl.NumEpochs() }
func (b *diurnalBench) prepare(context.Context) error { return nil }
func (b *diurnalBench) close()                        { b.rig.close() }
func (b *diurnalBench) sizes() map[string]int64 {
	return map[string]int64{"pairs": b.base.NumPairs(), "epochs": int64(b.tl.NumEpochs())}
}

// startPass starts the pass's timeline as a daemon on an empty data
// directory would: a fresh walk and a fresh journal.
func (b *diurnalBench) startPass(ctx context.Context, pass int) error {
	if pass != b.built {
		if err := b.build(pass); err != nil {
			return err
		}
	}
	if err := b.rig.reset(); err != nil {
		return err
	}
	wk, err := b.ctl.Start(ctx, b.tl)
	b.wk = wk
	return err
}

func (b *diurnalBench) op(ctx context.Context) error {
	env, c := b.env, b.env.c
	i := env.tr.begin(spanStep)
	ep, err := b.wk.Step(ctx)
	env.tr.endAtLastChild(b.applySpan)
	b.applySpan = -1
	env.tr.end(i)
	if err != nil {
		return err
	}
	b.ep = ep
	c.epochs++
	if ep.Adopted {
		c.adopted++
	}
	if ep.Forced {
		c.forced++
	}
	c.keepAdded += ep.AddedPairs
	c.plans++
	c.planSteps += int64(len(ep.Plan.Steps))
	if (ep.Epoch+1)%compactEvery == 0 {
		return b.rig.compact(env, b.cfg, ep.Epoch, deploy.NewState(b.wk.Workload(), b.wk.Allocation()))
	}
	return nil
}

func (b *diurnalBench) check(context.Context) (int64, error) {
	fp, lb, err := verify(b.env, b.wk.Workload(), nil, b.wk.Allocation(), b.cfg, b.ep.Plan.TargetFingerprint())
	b.fp, b.lb = fp, lb
	return b.ep.PairsMoved, err
}

// passDone closes the walk's ledger: the bill is the timeline's.
func (b *diurnalBench) passDone(context.Context) (outcome, error) {
	rep, err := b.wk.Finish()
	if err != nil {
		return outcome{}, err
	}
	alloc := b.wk.Allocation()
	return outcome{
		fingerprint: b.fp, cost: alloc.Cost(b.cfg.Model), lowerBound: b.lb.Cost, billUSD: rep.TotalCost().USD(),
		selected: int64(len(placedPairs(alloc))), vms: alloc.NumVMs(),
	}, nil
}

func (b *diurnalBench) finish(context.Context) error { return b.rig.recoverCheck(b.fp) }

// placedPairs lists every (topic, subscriber) pair an allocation serves.
func placedPairs(alloc *core.Allocation) []workload.Pair {
	var pairs []workload.Pair
	for _, vm := range alloc.VMs {
		for _, p := range vm.Placements {
			for _, v := range p.Subs {
				pairs = append(pairs, workload.Pair{Topic: p.Topic, Sub: v})
			}
		}
	}
	return pairs
}
