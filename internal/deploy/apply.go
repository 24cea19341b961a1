package deploy

import (
	"context"
	"errors"
	"fmt"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/dynamic"
	"github.com/pubsub-systems/mcss/internal/pricing"
)

// ErrAborted reports an apply the configured Observer stopped. It wraps
// the observer's own error, so callers can distinguish
// aborted-and-rolled-back (errors.Is(err, ErrAborted)) from a step whose
// execution failed (ErrStepFailed) — both leave the provisioner on its
// pre-apply state.
var ErrAborted = errors.New("deploy: apply aborted by observer")

// Observer receives per-step progress during Apply. OnStep fires before
// step i (0-based of total) executes; returning a non-nil error aborts the
// apply — the hook an interactive approval gate or a deadline budget uses
// — and the provisioner rolls back to its pre-apply state. Callbacks fire
// from the calling goroutine.
type Observer interface {
	OnStep(i, total int, s dynamic.Step) error
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(i, total int, s dynamic.Step) error

// OnStep implements Observer.
func (f ObserverFunc) OnStep(i, total int, s dynamic.Step) error { return f(i, total, s) }

// ApplyOption configures one Apply call.
type ApplyOption func(*applyOptions)

type applyOptions struct {
	dryRun     bool
	obs        Observer
	exec       Executor
	journal    *Journal
	epoch      int64
	resume     bool
	resumeFrom int
}

// DryRun validates and replays the plan — fingerprint check, every step,
// target verification — but leaves the provisioner untouched: the "would
// this apply cleanly right now?" probe.
func DryRun() ApplyOption {
	return func(o *applyOptions) { o.dryRun = true }
}

// WithObserver streams per-step progress to obs during Apply.
func WithObserver(obs Observer) ApplyOption {
	return func(o *applyOptions) { o.obs = obs }
}

// WithExecutor performs each step's external effect through exec before
// the in-memory state advances. Executor failures abort the apply with
// ErrStepFailed (and roll back), except ErrSimulatedCrash, which
// propagates verbatim and leaves any journal mid-plan — the crash model.
// Dry runs never execute.
func WithExecutor(exec Executor) ApplyOption {
	return func(o *applyOptions) { o.exec = exec }
}

// WithJournal makes the apply durable: plan-begin before the first step,
// step-done after each step's effect, plan-commit after verification,
// plan-abort on clean failure. A context cancellation or simulated crash
// writes no abort record, so recovery resumes the plan. Dry runs never
// journal.
func WithJournal(j *Journal) ApplyOption {
	return func(o *applyOptions) { o.journal = j }
}

// WithApplyEpoch tags this apply's journal records with the controller
// epoch (untagged applies record -1).
func WithApplyEpoch(epoch int) ApplyOption {
	return func(o *applyOptions) { o.epoch = int64(epoch) }
}

// ResumeFrom continues a half-applied plan after a crash: steps before
// next replay against the working copy only (their effects already
// landed and were journaled — no executor, no observer, no step-done
// records), execution restarts at step next, and no fresh plan-begin
// record is written. Pair it with Recovery.NextStep.
func ResumeFrom(next int) ApplyOption {
	return func(o *applyOptions) {
		o.resume = true
		o.resumeFrom = next
	}
}

// Report summarizes one Apply.
type Report struct {
	// DryRun echoes whether the provisioner was left untouched.
	DryRun bool
	// StepsApplied counts executed steps (all of them on success).
	StepsApplied int
	// Stats is the realized churn from the pre-apply allocation to the
	// applied one, with cost and fleet-size fields filled.
	Stats dynamic.MigrationStats
	// Cost is the applied allocation's cost under the plan's model —
	// equal to the plan's CostAfter forecast by construction.
	Cost pricing.MicroUSD
}

// Apply executes a plan against the provisioner: it validates the plan,
// refuses with ErrStalePlan when the provisioner's state no longer matches
// the plan's base fingerprint, replays the step sequence (reporting each
// step to the configured Observer), verifies the replayed state against
// the plan's own target fingerprint, and only then installs the new
// workload and allocation. On any mid-apply failure — a bad step, a
// cancelled context, an observer abort, a target mismatch — the
// provisioner keeps its pre-apply workload and allocation: steps execute
// against a private working copy, so rollback is the default, not a
// recovery action.
func Apply(ctx context.Context, plan *Plan, prov *dynamic.Provisioner, opts ...ApplyOption) (*Report, error) {
	o := applyOptions{epoch: -1}
	for _, opt := range opts {
		opt(&o)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if prov == nil {
		return nil, fmt.Errorf("%w: apply needs a provisioner (restore one from the current state)", ErrInvalidPlan)
	}
	pre := StateOf(prov)
	if fp := pre.Fingerprint(); fp != plan.BaseFingerprint {
		return nil, fmt.Errorf("%w: cluster state is %s, plan was computed against %s",
			ErrStalePlan, fp, plan.BaseFingerprint)
	}

	// Replay the steps one at a time against a working copy so the
	// observer sees real progress and a failure at step k leaves the
	// provisioner exactly as it was. The replayer also reprices kept
	// placements to the target workload's rates.
	replayer, err := dynamic.NewReplayer(pre.Allocation, plan.Target.Workload, plan.MessageBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidPlan, err)
	}
	journaling := o.journal != nil && !o.dryRun
	// abort closes the journal's open plan with a plan-abort record —
	// recovery then keeps the base state instead of resuming — and
	// returns err. Crash-like exits (context death, simulated crash)
	// bypass it so the journal stays mid-plan and resumable.
	abort := func(err error) (*Report, error) {
		if journaling {
			if jerr := o.journal.AppendPlanAbort(o.epoch, plan.BaseFingerprint); jerr != nil {
				err = fmt.Errorf("%w (journal abort record failed: %v)", err, jerr)
			}
		}
		return nil, err
	}
	if journaling && !o.resume {
		if err := o.journal.AppendPlanBegin(o.epoch, plan); err != nil {
			return nil, fmt.Errorf("deploy: journal plan-begin: %w", err)
		}
	}
	total := len(plan.Steps)
	for i, s := range plan.Steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if o.resume && i < o.resumeFrom {
			// This step's effect landed before the crash (its
			// step-done record is durable); replay state only.
			if err := replayer.Apply(s); err != nil {
				return abort(fmt.Errorf("%w: %v", ErrInvalidPlan, err))
			}
			continue
		}
		if o.obs != nil {
			if err := o.obs.OnStep(i, total, s); err != nil {
				return abort(fmt.Errorf("%w: step %d/%d (%s): %w", ErrAborted, i, total, s, err))
			}
		}
		if o.exec != nil && !o.dryRun {
			if err := o.exec.Execute(ctx, i, total, s); err != nil {
				if errors.Is(err, ErrSimulatedCrash) {
					return nil, err
				}
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
				if !errors.Is(err, ErrStepFailed) {
					err = fmt.Errorf("%w: step %d/%d (%s): %w", ErrStepFailed, i, total, s, err)
				}
				return abort(err)
			}
		}
		if err := replayer.Apply(s); err != nil {
			return abort(fmt.Errorf("%w: %v", ErrInvalidPlan, err))
		}
		if journaling {
			if err := o.journal.AppendStepDone(o.epoch, i); err != nil {
				return nil, fmt.Errorf("deploy: journal step-done: %w", err)
			}
		}
	}
	work, err := replayer.Finish()
	if err != nil {
		return abort(fmt.Errorf("%w: %v", ErrInvalidPlan, err))
	}
	work.Fleet = plan.Fleet

	// The replayed state must be the plan's own target: a plan whose
	// steps do not reproduce its target is invalid, not just stale. The
	// target's fingerprint is also what the commit record carries.
	targetFP := plan.TargetFingerprint()
	if got := dynamic.StateFingerprint(plan.Target.Workload, work); got != targetFP {
		return abort(fmt.Errorf("%w: steps replay to %s, target is %s", ErrInvalidPlan, got, targetFP))
	}

	stats := dynamic.MigrationStatsBetween(pre.Allocation, work, plan.Model)
	report := &Report{
		DryRun:       o.dryRun,
		StepsApplied: total,
		Stats:        stats,
		Cost:         stats.CostAfter,
	}
	if o.dryRun {
		return report, nil
	}

	// Adopt the plan's own target allocation when the replay proves it
	// faithful (the fingerprint pins instances and placements; the extra
	// accounting check below covers the derived fields the fingerprint
	// deliberately excludes). Pointer identity with the planner's target
	// is what lets a persistent incremental index survive a plan-mediated
	// adoption instead of reindexing every epoch. A hand-crafted plan
	// whose target carries stale accounting falls back to the replayed
	// copy.
	adopt := work
	if t := plan.Target.Allocation; accountingMatches(t, work) && !t.Fleet.IsZero() {
		adopt = t
	}
	sel, err := core.SelectionFromPairs(plan.Target.Workload, placedPairs(work))
	if err != nil {
		return abort(fmt.Errorf("%w: %v", ErrInvalidPlan, err))
	}
	// Commit is journaled before the in-memory adoption: once the commit
	// record is durable, a crash on either side of Adopt recovers to the
	// plan's target.
	if journaling {
		if err := o.journal.AppendPlanCommit(o.epoch, targetFP); err != nil {
			return nil, fmt.Errorf("deploy: journal plan-commit: %w", err)
		}
	}
	prov.Adopt(plan.Target.Workload, &core.Result{Selection: sel, Allocation: adopt})
	return report, nil
}

// accountingMatches reports whether two allocations with fingerprint-equal
// placements also agree on the derived per-VM bandwidth accounting.
func accountingMatches(a, b *core.Allocation) bool {
	if a == nil || len(a.VMs) != len(b.VMs) {
		return false
	}
	for i, vm := range a.VMs {
		o := b.VMs[i]
		if vm.InBytesPerHour != o.InBytesPerHour || vm.OutBytesPerHour != o.OutBytesPerHour ||
			vm.CapacityBytesPerHour != o.CapacityBytesPerHour || vm.Instance != o.Instance {
			return false
		}
	}
	return true
}
