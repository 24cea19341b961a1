package dynamic

import (
	"fmt"
	"slices"
	"sort"

	"github.com/pubsub-systems/mcss/internal/core"
	"github.com/pubsub-systems/mcss/internal/pricing"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// StepOp names one kind of deployment action in a plan.
type StepOp string

// The four step operations a plan is built from. A reconfiguration is
// expressed as removals, then retirements, then boots, then placements, so
// that replaying the steps in order never touches a retired VM and every
// placement lands on a VM that already exists.
const (
	// OpBootVM deploys a fresh VM of the given instance type at slot VM.
	OpBootVM StepOp = "boot-vm"
	// OpRetireVM shuts slot VM down; all of its placements must have been
	// removed first.
	OpRetireVM StepOp = "retire-vm"
	// OpPlace adds the listed subscribers of Topic to slot VM.
	OpPlace StepOp = "place"
	// OpRemove stops serving the listed subscribers of Topic from slot VM.
	OpRemove StepOp = "remove"
)

// Step is one executable action of a deployment plan. Steps address VMs by
// slot index in a shared coordinate space: slot i of the pre-apply
// allocation and slot i of the target allocation are the same broker, new
// slots are appended past the pre-apply fleet, and retired slots are the
// pre-apply slots past the target fleet (plus replaced slots, which are
// retired and re-booted in place).
type Step struct {
	Op StepOp
	// VM is the slot index the step targets.
	VM int
	// Instance and Capacity describe the VM a boot-vm step deploys.
	Instance pricing.InstanceType
	Capacity int64
	// Topic and Subs are the pairs a place/remove step adds or drops.
	Topic workload.TopicID
	Subs  []workload.SubID
}

// String renders the step for logs and plan review.
func (s Step) String() string {
	switch s.Op {
	case OpBootVM:
		return fmt.Sprintf("boot vm %d (%s, %d bytes/h)", s.VM, s.Instance.Name, s.Capacity)
	case OpRetireVM:
		return fmt.Sprintf("retire vm %d", s.VM)
	case OpPlace:
		return fmt.Sprintf("place topic %d ×%d on vm %d", s.Topic, len(s.Subs), s.VM)
	case OpRemove:
		return fmt.Sprintf("remove topic %d ×%d from vm %d", s.Topic, len(s.Subs), s.VM)
	default:
		return fmt.Sprintf("unknown step %q", string(s.Op))
	}
}

// StepsBetween extracts the step sequence transforming the before
// allocation into the after allocation, diffing placements by VM slot (the
// same position-based identity MigrationBetween measures churn with). The
// result replays deterministically: removals first (slot then topic order),
// then retirements, then boots, then placements, so ReplaySteps on before
// reproduces after exactly. A kept slot whose instance type or capacity
// changed is replaced in place (retire + boot).
func StepsBetween(before, after *core.Allocation) []Step {
	lenB, lenA := 0, 0
	if before != nil {
		lenB = len(before.VMs)
	}
	if after != nil {
		lenA = len(after.VMs)
	}
	n := lenB
	if lenA > n {
		n = lenA
	}

	// replaced[i] reports that kept slot i changes flavor and must be
	// rebuilt rather than diffed.
	replaced := make([]bool, n)
	for i := 0; i < lenB && i < lenA; i++ {
		b, a := before.VMs[i], after.VMs[i]
		if b.Instance != a.Instance || b.CapacityBytesPerHour != a.CapacityBytesPerHour {
			replaced[i] = true
		}
	}

	var removes, retires, boots, places []Step
	for i := 0; i < n; i++ {
		var bv, av *core.VM
		if i < lenB {
			bv = before.VMs[i]
		}
		if i < lenA && !replaced[i] {
			av = after.VMs[i]
		}
		removes = append(removes, placementSteps(OpRemove, i, bv, av)...)
		if bv != nil && (i >= lenA || replaced[i]) {
			retires = append(retires, Step{Op: OpRetireVM, VM: i})
		}
	}
	for i := 0; i < lenA; i++ {
		av := after.VMs[i]
		if i >= lenB || replaced[i] {
			boots = append(boots, Step{
				Op: OpBootVM, VM: i,
				Instance: av.Instance,
				Capacity: av.CapacityBytesPerHour,
			})
		}
		var bv *core.VM
		if i < lenB && !replaced[i] {
			bv = before.VMs[i]
		}
		places = append(places, placementSteps(OpPlace, i, av, bv)...)
	}

	steps := make([]Step, 0, len(removes)+len(retires)+len(boots)+len(places))
	steps = append(steps, removes...)
	steps = append(steps, retires...)
	steps = append(steps, boots...)
	steps = append(steps, places...)
	return steps
}

// placementSteps emits one op-typed step per topic of vm whose subscriber
// set extends past other's, in ascending topic order with ascending subs.
// With op=OpRemove, vm is the before slot and other the after slot (subs
// present before but not after are removed); with op=OpPlace the roles
// flip.
func placementSteps(op StepOp, slot int, vm, other *core.VM) []Step {
	if vm == nil {
		return nil
	}
	otherSubs := make(map[workload.TopicID]map[workload.SubID]bool)
	if other != nil {
		for _, p := range other.Placements {
			set := make(map[workload.SubID]bool, len(p.Subs))
			for _, v := range p.Subs {
				set[v] = true
			}
			otherSubs[p.Topic] = set
		}
	}
	var steps []Step
	for _, p := range vm.Placements {
		have := otherSubs[p.Topic]
		var subs []workload.SubID
		for _, v := range p.Subs {
			if !have[v] {
				subs = append(subs, v)
			}
		}
		if len(subs) == 0 {
			continue
		}
		sort.Slice(subs, func(i, j int) bool { return subs[i] < subs[j] })
		steps = append(steps, Step{Op: op, VM: slot, Topic: p.Topic, Subs: subs})
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].Topic < steps[j].Topic })
	return steps
}

// Typed step-replay errors.
var (
	// ErrBadStep reports a step that cannot be executed against the
	// current working fleet (out-of-range slot, retiring a non-empty VM,
	// removing a pair that is not placed, …).
	ErrBadStep = fmt.Errorf("dynamic: step cannot be applied")
)

// ReplaySteps executes a step sequence against a copy of the base
// allocation and returns the resulting allocation, never mutating base.
// Placement accounting (In/OutBytesPerHour) is rebuilt under the target
// workload's rates — replaying a plan reprices every kept placement to the
// snapshot the plan was computed for. Steps are validated structurally
// (slots exist, removed pairs are present, retired slots are empty, booted
// slots are free); capacity is not enforced here, because the planner that
// emitted the steps already applied its own capacity discipline (including
// the elastic controller's headroom-derated packing) and the caller checks
// the replayed state against the plan's target fingerprint.
func ReplaySteps(base *core.Allocation, target *workload.Workload, messageBytes int64, steps []Step) (*core.Allocation, error) {
	r, err := NewReplayer(base, target, messageBytes)
	if err != nil {
		return nil, err
	}
	for _, s := range steps {
		if err := r.Apply(s); err != nil {
			return nil, err
		}
	}
	return r.Finish()
}

// Replayer executes a step sequence incrementally against a private copy
// of a base allocation — the engine behind ReplaySteps and the deploy
// package's Apply, which needs per-step control for progress callbacks and
// abort points. Slots keep their coordinates for the whole replay (retired
// holes are only compacted by Finish), so steps can address replaced slots
// mid-sequence.
type Replayer struct {
	slots        []*core.VM
	base         *core.Allocation
	target       *workload.Workload
	messageBytes int64
	applied      int
}

// NewReplayer copies the base allocation into a working slot table,
// repricing every kept placement under the target workload's rates. The
// base allocation is never mutated.
func NewReplayer(base *core.Allocation, target *workload.Workload, messageBytes int64) (*Replayer, error) {
	lenB := 0
	if base != nil {
		lenB = len(base.VMs)
	}
	slots := make([]*core.VM, lenB)
	for i := 0; i < lenB; i++ {
		vm := base.VMs[i]
		nv := &core.VM{
			ID:                   i,
			Instance:             vm.Instance,
			CapacityBytesPerHour: vm.CapacityBytesPerHour,
			Placements:           make([]core.TopicPlacement, 0, len(vm.Placements)),
		}
		for _, p := range vm.Placements {
			if int(p.Topic) >= target.NumTopics() {
				return nil, fmt.Errorf("%w: base slot %d serves topic %d outside the target workload (%d topics)",
					ErrBadStep, i, p.Topic, target.NumTopics())
			}
			subs := make([]workload.SubID, len(p.Subs))
			copy(subs, p.Subs)
			rb := target.Rate(p.Topic) * messageBytes
			nv.Placements = append(nv.Placements, core.TopicPlacement{Topic: p.Topic, Subs: subs})
			nv.InBytesPerHour += rb
			nv.OutBytesPerHour += rb * int64(len(subs))
		}
		slots[i] = nv
	}
	return &Replayer{slots: slots, base: base, target: target, messageBytes: messageBytes}, nil
}

// Apply executes one step, wrapping any violation with the step's
// sequence position.
func (r *Replayer) Apply(s Step) error {
	if err := applyStep(&r.slots, r.target, r.messageBytes, s); err != nil {
		return fmt.Errorf("step %d (%s): %w", r.applied, s, err)
	}
	r.applied++
	return nil
}

// Finish compacts retired slots and returns the replayed allocation.
func (r *Replayer) Finish() (*core.Allocation, error) {
	return compactSlots(r.slots, r.base, r.messageBytes)
}

// applyStep mutates the slot table for one step. grow points at the
// caller's slice so boot-vm can append a fresh trailing slot.
func applyStep(grow *[]*core.VM, target *workload.Workload, messageBytes int64, s Step) error {
	switch s.Op {
	case OpBootVM:
		if s.VM == len(*grow) {
			*grow = append(*grow, nil)
		}
		if s.VM < 0 || s.VM >= len(*grow) {
			return fmt.Errorf("%w: boot slot %d outside fleet of %d", ErrBadStep, s.VM, len(*grow))
		}
		if (*grow)[s.VM] != nil {
			return fmt.Errorf("%w: slot %d is already occupied", ErrBadStep, s.VM)
		}
		(*grow)[s.VM] = &core.VM{
			ID:                   s.VM,
			Instance:             s.Instance,
			CapacityBytesPerHour: s.Capacity,
		}
		return nil
	case OpRetireVM:
		vm, err := slotAt(*grow, s.VM)
		if err != nil {
			return err
		}
		if len(vm.Placements) != 0 {
			return fmt.Errorf("%w: retiring slot %d with %d placements still on it", ErrBadStep, s.VM, len(vm.Placements))
		}
		(*grow)[s.VM] = nil
		return nil
	case OpPlace:
		vm, err := slotAt(*grow, s.VM)
		if err != nil {
			return err
		}
		if int(s.Topic) < 0 || int(s.Topic) >= target.NumTopics() {
			return fmt.Errorf("%w: topic %d outside the workload (%d topics)", ErrBadStep, s.Topic, target.NumTopics())
		}
		for _, v := range s.Subs {
			if int(v) < 0 || int(v) >= target.NumSubscribers() {
				return fmt.Errorf("%w: subscriber %d outside the workload (%d subscribers)", ErrBadStep, v, target.NumSubscribers())
			}
		}
		rb := target.Rate(s.Topic) * messageBytes
		idx := -1
		for i := range vm.Placements {
			if vm.Placements[i].Topic == s.Topic {
				idx = i
				break
			}
		}
		if idx < 0 {
			vm.Placements = append(vm.Placements, core.TopicPlacement{Topic: s.Topic})
			idx = len(vm.Placements) - 1
			vm.InBytesPerHour += rb
		}
		vm.Placements[idx].Subs = append(vm.Placements[idx].Subs, s.Subs...)
		vm.OutBytesPerHour += rb * int64(len(s.Subs))
		return nil
	case OpRemove:
		vm, err := slotAt(*grow, s.VM)
		if err != nil {
			return err
		}
		idx := -1
		for i := range vm.Placements {
			if vm.Placements[i].Topic == s.Topic {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("%w: slot %d does not serve topic %d", ErrBadStep, s.VM, s.Topic)
		}
		if int(s.Topic) >= target.NumTopics() {
			return fmt.Errorf("%w: topic %d outside the workload", ErrBadStep, s.Topic)
		}
		drop := make(map[workload.SubID]bool, len(s.Subs))
		for _, v := range s.Subs {
			drop[v] = true
		}
		p := &vm.Placements[idx]
		kept := p.Subs[:0]
		removed := 0
		for _, v := range p.Subs {
			if drop[v] {
				removed++
			} else {
				kept = append(kept, v)
			}
		}
		if removed != len(drop) {
			return fmt.Errorf("%w: slot %d serves only %d of the %d listed pairs of topic %d",
				ErrBadStep, s.VM, removed, len(drop), s.Topic)
		}
		rb := target.Rate(s.Topic) * messageBytes
		p.Subs = kept
		vm.OutBytesPerHour -= rb * int64(removed)
		if len(p.Subs) == 0 {
			vm.Placements = append(vm.Placements[:idx], vm.Placements[idx+1:]...)
			vm.InBytesPerHour -= rb
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown op %q", ErrBadStep, string(s.Op))
	}
}

func slotAt(slots []*core.VM, i int) (*core.VM, error) {
	if i < 0 || i >= len(slots) {
		return nil, fmt.Errorf("%w: slot %d outside fleet of %d", ErrBadStep, i, len(slots))
	}
	if slots[i] == nil {
		return nil, fmt.Errorf("%w: slot %d is retired", ErrBadStep, i)
	}
	return slots[i], nil
}

// compactSlots drops retired slots and re-densifies VM IDs. Retired slots
// must form a suffix (and replaced slots must have been re-booted), so
// position-based pair identity survives the replay.
func compactSlots(slots []*core.VM, base *core.Allocation, messageBytes int64) (*core.Allocation, error) {
	out := &core.Allocation{MessageBytes: messageBytes}
	if base != nil {
		out.Fleet = base.Fleet
	}
	for i, vm := range slots {
		if vm == nil {
			for _, later := range slots[i:] {
				if later != nil {
					return nil, fmt.Errorf("%w: retired slot %d precedes a live slot (holes must be re-booted or trail the fleet)",
						ErrBadStep, i)
				}
			}
			break
		}
		vm.ID = i
		out.VMs = append(out.VMs, vm)
	}
	return out, nil
}

// StateFingerprint hashes a cluster state — the workload (rates and
// interest CSR) plus the allocation (per-VM instance, capacity, and
// placements) — into a short hex string. Plans record the fingerprint of
// the state they were computed against; Apply refuses with ErrStalePlan
// when the live state no longer matches. Accounting fields are derived and
// excluded. A nil workload or allocation hashes like an empty one, so the
// fingerprint of a never-deployed cluster is well defined.
//
// The workload section is memoized on the (immutable) workload — see
// workload.FingerprintPrefix — so each call hashes only the allocation.
func StateFingerprint(w *workload.Workload, alloc *core.Allocation) string {
	if w == nil {
		w = emptyWorkload
	}
	h := w.FingerprintPrefix()
	if alloc == nil {
		return fmt.Sprintf("%016x", uint64(h.Word(0)))
	}
	h = h.Word(int64(len(alloc.VMs)))
	var (
		order []int
		subs  []workload.SubID
	)
	for _, vm := range alloc.VMs {
		h = h.Text(vm.Instance.Name).
			Word(int64(vm.Instance.HourlyRate)).
			Word(vm.Instance.LinkMbps).
			Word(vm.CapacityBytesPerHour).
			Word(int64(len(vm.Placements)))
		// Placement list order and subscriber order within a placement
		// are incidental (different packers and replayed steps produce
		// different orders for the same state), so the hash canonicalizes
		// both: topics ascending, subs ascending. Lists already in order
		// are hashed in place.
		ps := vm.Placements
		order = order[:0]
		for i := range ps {
			order = append(order, i)
		}
		if !topicsAscending(ps) {
			sort.Slice(order, func(a, b int) bool { return ps[order[a]].Topic < ps[order[b]].Topic })
		}
		for _, pi := range order {
			p := &ps[pi]
			vs := p.Subs
			if !slices.IsSorted(vs) {
				subs = append(subs[:0], vs...)
				slices.Sort(subs)
				vs = subs
			}
			h = h.Word(int64(p.Topic)).Word(int64(len(vs)))
			for _, v := range vs {
				h = h.Word(int64(v))
			}
		}
	}
	return fmt.Sprintf("%016x", uint64(h))
}

// emptyWorkload stands in for a nil workload in StateFingerprint.
var emptyWorkload = &workload.Workload{}

// topicsAscending reports whether placements list strictly ascending
// topics — the canonical order StateFingerprint would otherwise sort into.
func topicsAscending(ps []core.TopicPlacement) bool {
	for i := 1; i < len(ps); i++ {
		if ps[i].Topic <= ps[i-1].Topic {
			return false
		}
	}
	return true
}

// Restore rebuilds a Provisioner around an externally persisted state
// (workload + solve result) without re-solving — the entry point for
// applying a serialized plan to a cluster reloaded from disk. The result's
// selection should cover exactly the placed pairs (SelectionFromPairs of
// the allocation's placements) unless the caller has a better one.
func Restore(w *workload.Workload, res *core.Result, cfg core.Config) *Provisioner {
	return &Provisioner{cfg: cfg, w: w, res: res}
}
