// Package netemu is the in-guest agent of the Nyx-Net reproduction: it
// executes bytecode inputs against a guest kernel, emulating the network
// interactions of the target connection (§3.3). Connect opcodes establish
// emulated connections, packet opcodes deliver payloads to the hooked
// receive path with exact packet boundaries, and the special snapshot
// opcode triggers the incremental-snapshot hypercall (§4.3).
//
// The agent recovers target crashes, accounts virtual time, and keeps the
// value environment (connection handles) consistent across snapshot
// restores — the Go analogue of synchronizing bytecode-stream state across
// processes.
package netemu

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/spec"
	"repro/internal/vm"
)

// Value is a runtime value produced by an opcode: a connection handle or a
// custom integer (used by non-network targets such as Super Mario).
type Value struct {
	Edge   spec.EdgeID
	ConnID int
	V      int64
}

// CustomHandler executes a KindCustom opcode. It receives the resolved
// argument values and returns the values for the node's declared outputs.
type CustomHandler func(env *guest.Env, data []byte, args []Value) []Value

// Result describes one test-case execution.
type Result struct {
	// Crashed is set when the target raised a crash; Crash holds details.
	Crashed bool
	Crash   *guest.CrashError
	// CrashOp is the index of the op that crashed (-1 otherwise).
	CrashOp int
	// OpsExecuted counts successfully executed ops (including the ops
	// skipped by a suffix run, which were executed when the snapshot was
	// created).
	OpsExecuted int
	// PacketsDelivered counts data-carrying ops that reached the target.
	PacketsDelivered int
	// SnapshotTaken is set when this run created an incremental snapshot.
	SnapshotTaken bool
	// FromSnapshot is set when this run resumed from the incremental
	// snapshot instead of the root.
	FromSnapshot bool
	// VirtTime is the virtual time the execution consumed.
	VirtTime time.Duration
}

// Agent drives a kernel + machine with bytecode inputs.
type Agent struct {
	M *vm.Machine
	K *guest.Kernel
	S *spec.Spec

	custom map[spec.NodeID]CustomHandler

	// slots is the snapshot bookkeeping per snapshot slot: the machine
	// restores memory, devices and (via memory) kernel state, but the
	// bytecode value environment lives on the host side and must be
	// re-attached when a slot resumes. The paper's one snapshot per round
	// (§3.4) is the entry under singleSlot, created and resumed through the
	// slot API like any pooled slot and released by DropSnapshot.
	slots map[int]*slotState

	// valScratch is the reusable backing array of a run's value
	// environment: a root run starts it empty, a snapshot-resumed one with
	// a private, growable copy of the captured values. Reusing one array
	// keeps both paths allocation-free (the snapshot paths that retain
	// values always copy out of it).
	valScratch []Value
}

// slotState is the host-side state of one snapshot slot: the value
// environment at the snapshot point and how many ops the snapshotted prefix
// contained.
type slotState struct {
	values []Value
	ops    int
}

// singleSlot is the slot id reserved for a round's one snapshot when no
// pool keeps snapshots across rounds: RunCreatingSlot creates it, and
// RunFromSnapshot resumes and DropSnapshot releases it. Pool ids start
// above it (snappool.Pool.AllocSlot).
const singleSlot = 0

// ErrNoSnapshot is returned by RunFromSnapshot (and RunSuffix) without the
// requested snapshot.
var ErrNoSnapshot = errors.New("netemu: no incremental snapshot available")

// createNone as run's create parameter never takes a snapshot at the marker
// (root and suffix runs); ids >= 0 name the slot to create into.
const createNone = -1

// New creates an agent.
func New(m *vm.Machine, k *guest.Kernel, s *spec.Spec) *Agent {
	return &Agent{M: m, K: k, S: s, custom: make(map[spec.NodeID]CustomHandler), slots: make(map[int]*slotState)}
}

// RegisterCustom installs a handler for a KindCustom node.
func (a *Agent) RegisterCustom(n spec.NodeID, h CustomHandler) { a.custom[n] = h }

// HasSnapshot reports whether singleSlot is held. Nothing in the fuzzer
// calls it: it is kept because bench/'s executor decorator forwards it.
func (a *Agent) HasSnapshot() bool { return a.HasSlot(singleSlot) }

// DropSnapshot releases singleSlot, the snapshot of a round without a pool
// (the fuzzer does this before scheduling a new input, §3.4). The release
// is a hypercall, so it costs a VM exit; the machine keeps the slot's
// buffers for the next RunCreatingSlot to retake.
func (a *Agent) DropSnapshot() {
	if a.slots[singleSlot] != nil {
		a.M.Hypercall(vm.HcReleaseSnapshot) //nolint:errcheck // release cannot fail
		delete(a.slots, singleSlot)
	}
}

// RunFromRoot executes in from the root snapshot. It takes no snapshot,
// whatever in.SnapshotAt says: RunCreatingSlot is the run that does.
func (a *Agent) RunFromRoot(in *spec.Input, tr *coverage.Trace) (Result, error) {
	if err := a.M.RestoreRoot(); err != nil {
		return Result{}, fmt.Errorf("netemu: root restore: %w", err)
	}
	return a.run(in, tr, 0, a.valScratch[:0], createNone)
}

// RunSuffix is RunFromSnapshot on singleSlot. Nothing in the fuzzer calls
// it: it is kept because bench/'s executor decorator forwards it.
func (a *Agent) RunSuffix(in *spec.Input, tr *coverage.Trace) (Result, error) {
	return a.RunFromSnapshot(singleSlot, in, tr)
}

// ---- Pooled snapshot slots ----

// HasSlot reports whether snapshot slot id is available.
func (a *Agent) HasSlot(slot int) bool {
	return a.slots[slot] != nil && a.M.HasSlot(slot)
}

// SlotOps returns the prefix length (in ops) of slot id, or -1.
func (a *Agent) SlotOps(slot int) int {
	if st := a.slots[slot]; st != nil {
		return st.ops
	}
	return -1
}

// SlotBytes returns the guest-memory bytes slot id holds (the pool's
// budget charge).
func (a *Agent) SlotBytes(slot int) int64 { return a.M.SlotBytes(slot) }

// SlotProfile and SeedSlotProfile are no-ops: restores alias only and keep
// no per-slot write-set profile. They are kept only because bench/'s
// executor decorator forwards core.SlotExecutor's whole method set, and go
// when it stops forwarding them.
func (a *Agent) SlotProfile(int) any { return nil }

// SeedSlotProfile does nothing; see SlotProfile.
func (a *Agent) SeedSlotProfile(int, any) {}

// DropSlot releases pooled snapshot slot id (the pool's eviction path).
func (a *Agent) DropSlot(slot int) {
	delete(a.slots, slot)
	a.M.DropSlot(slot)
}

// RunCreatingSlot executes in, creating a pooled snapshot into newSlot when
// execution reaches in.SnapshotAt (which must be set). With fromSlot < 0
// the run starts at the root snapshot; otherwise it resumes from pooled
// slot fromSlot, whose prefix must be a prefix of in ending at or before
// the marker — the chained-creation path that extends the longest cached
// prefix instead of re-executing everything from the root.
func (a *Agent) RunCreatingSlot(in *spec.Input, tr *coverage.Trace, fromSlot, newSlot int) (Result, error) {
	if in.SnapshotAt < 0 {
		return Result{}, fmt.Errorf("netemu: RunCreatingSlot needs a snapshot marker")
	}
	if fromSlot < 0 {
		if err := a.M.RestoreRoot(); err != nil {
			return Result{}, fmt.Errorf("netemu: root restore: %w", err)
		}
		return a.run(in, tr, 0, a.valScratch[:0], newSlot)
	}
	st := a.slots[fromSlot]
	if st == nil {
		return Result{}, ErrNoSnapshot
	}
	if in.SnapshotAt < st.ops {
		return Result{}, fmt.Errorf("netemu: snapshot marker %d precedes base slot prefix %d", in.SnapshotAt, st.ops)
	}
	if err := a.restoreSlot(fromSlot); err != nil {
		return Result{}, err
	}
	res, err := a.run(in, tr, st.ops, a.resumeValues(st.values), newSlot)
	res.FromSnapshot = true
	res.OpsExecuted += st.ops
	return res, err
}

// RunFromSnapshot executes in.Ops[SnapshotAt:], resuming from pooled slot
// slot — the cached longest prefix of the incoming input, chosen by the
// snapshot pool. The marker must sit exactly at the slot's prefix length
// (the pool keys slots by prefix digest, so a digest hit guarantees the
// prefix bytes match; the marker check catches caller bookkeeping bugs).
func (a *Agent) RunFromSnapshot(slot int, in *spec.Input, tr *coverage.Trace) (Result, error) {
	st := a.slots[slot]
	if st == nil {
		return Result{}, ErrNoSnapshot
	}
	if in.SnapshotAt != st.ops {
		return Result{}, fmt.Errorf("netemu: input snapshot marker %d does not match slot prefix %d",
			in.SnapshotAt, st.ops)
	}
	if err := a.restoreSlot(slot); err != nil {
		return Result{}, err
	}
	res, err := a.run(in, tr, st.ops, a.resumeValues(st.values), createNone)
	res.FromSnapshot = true
	res.OpsExecuted += st.ops
	return res, err
}

// restoreSlot restores the machine to slot. The machine checks that it holds
// the slot before it touches anything, so a slot the agent knows but the
// machine no longer does (a new root dropped it) is ErrNoSnapshot, as a slot
// the agent does not know is.
func (a *Agent) restoreSlot(slot int) error {
	if err := a.M.RestoreIncrementalSlot(slot); err != nil {
		if errors.Is(err, mem.ErrNoIncrementalSnapshot) {
			return ErrNoSnapshot
		}
		return fmt.Errorf("netemu: slot restore: %w", err)
	}
	return nil
}

// resumeValues builds the private working copy of a resumed run's value
// environment in the agent's reusable scratch. Safe because everything
// that outlives the run copies out of the working slice (takeSnapshot),
// and run() hands the possibly-grown array back for the next round.
func (a *Agent) resumeValues(src []Value) []Value {
	vals := append(a.valScratch[:0], src...)
	a.valScratch = vals
	return vals
}

// takeSnapshot captures the VM at op index ops with the given value
// environment into snapshot slot slot.
func (a *Agent) takeSnapshot(slot, ops int, values []Value) error {
	if err := a.M.SnapshotHypercall(slot); err != nil {
		return err
	}
	a.slots[slot] = &slotState{values: append([]Value(nil), values...), ops: ops}
	return nil
}

// run executes ops[start:] with the given initial value environment,
// creating a snapshot at the marker per create (createNone or a slot id).
// The marker can only fire at or after start: resumed runs re-create
// nothing before their resume point.
func (a *Agent) run(in *spec.Input, tr *coverage.Trace, start int, values []Value, create int) (res Result, err error) {
	res.CrashOp = -1
	t0 := a.M.Clock.Now()
	env := a.K.Env()
	if tr != nil {
		tr.Reset()
	}
	env.SetTrace(tr)
	defer func() {
		env.SetTrace(nil)
		res.VirtTime = a.M.Clock.Now() - t0
		// Recycle the (possibly grown) value array as the next resumed
		// run's scratch; every retainer of values copied out of it.
		a.valScratch = values[:0]
		a.M.Hypercall(vm.HcExecDone) //nolint:errcheck // informational
	}()

	for i := start; i < len(in.Ops); i++ {
		if in.SnapshotAt == i && create != createNone {
			// The snapshot opcode: request an incremental snapshot via
			// hypercall and remember the value environment.
			if hcErr := a.takeSnapshot(create, i, values); hcErr != nil {
				return res, fmt.Errorf("netemu: snapshot hypercall: %w", hcErr)
			}
			res.SnapshotTaken = true
		}
		op := in.Ops[i]
		crashed, extended, execErr := a.execOp(env, op, values)
		if execErr != nil {
			return res, fmt.Errorf("netemu: op %d: %w", i, execErr)
		}
		if crashed != nil {
			res.Crashed = true
			res.Crash = crashed
			res.CrashOp = i
			a.M.Hypercall(vm.HcPanic) //nolint:errcheck // informational
			return res, nil
		}
		values = extended
		res.OpsExecuted++
		if int(op.Node) < len(a.S.Nodes) && a.S.Nodes[op.Node].HasData {
			res.PacketsDelivered++
		}
	}
	// Snapshot marker positioned after the last op.
	if in.SnapshotAt == len(in.Ops) && in.SnapshotAt >= start && create != createNone {
		if hcErr := a.takeSnapshot(create, len(in.Ops), values); hcErr != nil {
			return res, fmt.Errorf("netemu: snapshot hypercall: %w", hcErr)
		}
		res.SnapshotTaken = true
	}
	return res, nil
}

// execOp executes a single opcode, recovering target crashes, and returns
// values extended by what the opcode output.
func (a *Agent) execOp(env *guest.Env, op spec.Op, values []Value) (crash *guest.CrashError, extended []Value, err error) {
	if int(op.Node) >= len(a.S.Nodes) {
		return nil, nil, fmt.Errorf("unknown node %d", op.Node)
	}
	nt := &a.S.Nodes[op.Node]

	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(*guest.CrashError); ok {
				crash = ce
				return
			}
			panic(r)
		}
	}()

	resolve := func(j int) (Value, error) {
		if j >= len(op.Args) || int(op.Args[j]) >= len(values) {
			return Value{}, fmt.Errorf("op %s: unresolved arg %d", nt.Name, j)
		}
		return values[op.Args[j]], nil
	}

	switch nt.Kind {
	case spec.KindConnect:
		c, _, cerr := a.K.NewConnection(nt.Port)
		if cerr != nil {
			return nil, nil, cerr
		}
		out := Value{ConnID: c.ID}
		if len(nt.Outputs) > 0 {
			out.Edge = nt.Outputs[0]
		}
		return nil, append(values, out), nil

	case spec.KindPacket:
		v, rerr := resolve(0)
		if rerr != nil {
			return nil, nil, rerr
		}
		c := a.K.Conn(v.ConnID)
		if c == nil || c.Closed {
			// Delivering to a dead connection is a semantic no-op, like
			// writing to a closed socket: the emulation layer swallows
			// it rather than aborting the whole test case.
			return nil, values, nil
		}
		if derr := a.K.Deliver(c, op.Data); derr != nil {
			return nil, nil, derr
		}
		return nil, values, nil

	case spec.KindClose:
		v, rerr := resolve(0)
		if rerr != nil {
			return nil, nil, rerr
		}
		if c := a.K.Conn(v.ConnID); c != nil {
			a.K.CloseConn(c)
		}
		return nil, values, nil

	case spec.KindCustom:
		h, ok := a.custom[op.Node]
		if !ok {
			return nil, nil, fmt.Errorf("no handler for custom node %s", nt.Name)
		}
		args := make([]Value, len(op.Args))
		for j := range op.Args {
			v, rerr := resolve(j)
			if rerr != nil {
				return nil, nil, rerr
			}
			args[j] = v
		}
		// The handler runs outside any kernel event; whatever it mutates
		// must still reach guest memory before the next snapshot marker.
		a.K.MarkDirty()
		return nil, append(values, h(env, op.Data, args)...), nil

	default:
		return nil, nil, fmt.Errorf("unknown node kind %d", nt.Kind)
	}
}

// Now returns the machine's virtual time (the Executor interface of the
// core fuzzer).
func (a *Agent) Now() time.Duration { return a.M.Clock.Now() }
