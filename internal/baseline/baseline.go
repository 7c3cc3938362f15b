// Package baseline implements the comparison fuzzers of the paper's
// evaluation (§5): AFLnet, AFLnet-no-state, AFLnwe, and AFL++ with
// libpreeny's desock layer — plus an Agamotto-style incremental snapshot
// manager for the Figure 6 comparison.
//
// Each baseline is a core.Executor: the campaign logic (queue, mutation,
// coverage) is shared with Nyx-Net, and only the execution mechanism
// differs, which is what the paper varies. The executors model the costs
// and state semantics that make the baselines slow and noisy (§2.1):
// real-socket delivery, fixed sleeps waiting for the server, cleanup
// scripts, and long-lived processes that accumulate state across test
// cases.
package baseline

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/netemu"
	"repro/internal/spec"
	"repro/internal/targets"
)

// Kind selects a baseline fuzzer.
type Kind int

// The baseline fuzzers from Tables 1–3.
const (
	// AFLnet: state-aware network fuzzer; cleanup script plus fixed
	// sleep per test case, long-lived server process restarted
	// periodically.
	AFLnet Kind = iota
	// AFLnetNoState: AFLnet without state scheduling or cleanup script;
	// the server lives even longer between restarts (this is the
	// configuration that trips pure-ftpd's internal OOM, Table 1 "*").
	AFLnetNoState
	// AFLnwe: naive network replay — the whole input is sent as one
	// blob, destroying packet boundaries.
	AFLnwe
	// AFLppDesock: AFL++ with libpreeny's desock layer; no network or
	// sleeps, but a full process start per execution and no support for
	// targets needing real socket semantics (the n/a rows).
	AFLppDesock
)

// String names the baseline as in the paper's tables.
func (k Kind) String() string {
	switch k {
	case AFLnet:
		return "aflnet"
	case AFLnetNoState:
		return "aflnet-no-state"
	case AFLnwe:
		return "aflnwe"
	case AFLppDesock:
		return "aflpp"
	default:
		return fmt.Sprintf("baseline(%d)", int(k))
	}
}

// Restart intervals: how many executions a server process survives before
// the harness restarts it. AFLnet restarts more eagerly (its cleanup
// script also re-launches crashed services); no-state lets the process run
// longest — which is how it accumulates enough leaked state to trip
// internal limits.
const (
	aflnetRestartEvery  = 256
	noStateRestartEvery = 1024
	aflnweRestartEvery  = 256
)

// ErrIncompatible is returned when a baseline cannot run a target at all
// (the n/a entries of Table 2).
var ErrIncompatible = errors.New("baseline: target incompatible with this fuzzer's emulation layer")

// Executor runs test cases the way the selected baseline would.
type Executor struct {
	Kind Kind
	Inst *targets.Instance

	execsSinceRestart int
	restartEvery      int
	pendingRestart    bool
	started           bool
}

// NewExecutor builds a baseline executor for a launched target instance.
// AFL++/desock refuses targets whose socket usage desock cannot emulate.
func NewExecutor(kind Kind, inst *targets.Instance) (*Executor, error) {
	if kind == AFLppDesock && !inst.Info.DesockCompat {
		return nil, fmt.Errorf("%w: %s needs real socket semantics", ErrIncompatible, inst.Info.Name)
	}
	e := &Executor{Kind: kind, Inst: inst}
	switch kind {
	case AFLnet:
		e.restartEvery = aflnetRestartEvery
	case AFLnetNoState:
		e.restartEvery = noStateRestartEvery
	case AFLnwe:
		e.restartEvery = aflnweRestartEvery
	case AFLppDesock:
		e.restartEvery = 1
	default:
		return nil, fmt.Errorf("baseline: unknown kind %d", kind)
	}
	return e, nil
}

// Now implements core.Executor.
func (e *Executor) Now() time.Duration { return e.Inst.M.Clock.Now() }

// RunFromRoot implements core.Executor: deliver the input the way this
// baseline would, charging its cost model.
func (e *Executor) RunFromRoot(in *spec.Input, tr *coverage.Trace) (netemu.Result, error) {
	m := e.Inst.M
	info := e.Inst.Info
	t0 := m.Clock.Now()

	// Process lifecycle: restart when due (or after a crash — the dead
	// process must be relaunched).
	if !e.started || e.pendingRestart || e.execsSinceRestart >= e.restartEvery {
		if err := m.RestoreRoot(); err != nil {
			return netemu.Result{}, fmt.Errorf("baseline: restart: %w", err)
		}
		m.Clock.Advance(info.Startup)
		e.execsSinceRestart = 0
		e.pendingRestart = false
		e.started = true
	}
	e.execsSinceRestart++

	// Per-test-case fixed costs.
	switch e.Kind {
	case AFLnet:
		m.Clock.Advance(info.Cleanup + info.ServerWait)
	case AFLnetNoState, AFLnwe:
		m.Clock.Advance(info.ServerWait)
	case AFLppDesock:
		// desock: no sleeps, no cleanup; the cost is the per-exec
		// process start charged above.
	}

	res, err := e.interpret(in, tr)
	if err != nil {
		return res, err
	}
	res.VirtTime = m.Clock.Now() - t0
	if res.Crashed {
		e.pendingRestart = true
	}
	return res, nil
}

// interpret executes the input ops directly against the kernel — without
// restoring any snapshot, because baseline processes persist across test
// cases (the source of both their state-accumulation bugs and their
// noise).
func (e *Executor) interpret(in *spec.Input, tr *coverage.Trace) (res netemu.Result, err error) {
	k := e.Inst.K
	s := e.Inst.Spec
	env := k.Env()
	res.CrashOp = -1
	if tr != nil {
		tr.Reset()
	}
	env.SetTrace(tr)
	defer env.SetTrace(nil)

	ops := in.Ops
	if e.Kind == AFLnwe {
		ops = mergePackets(s, ops)
	}

	conns := make([]*guest.Conn, 0, 4)
	for i, op := range ops {
		if int(op.Node) >= len(s.Nodes) {
			return res, fmt.Errorf("baseline: unknown node %d", op.Node)
		}
		nt := s.Nodes[op.Node]
		crash := e.execOne(env, nt, op, &conns)
		if crash != nil {
			res.Crashed = true
			res.Crash = crash
			res.CrashOp = i
			return res, nil
		}
		res.OpsExecuted++
		if nt.HasData {
			res.PacketsDelivered++
		}
	}
	return res, nil
}

// execOne executes a single op, recovering target crashes.
func (e *Executor) execOne(env *guest.Env, nt spec.NodeType, op spec.Op, conns *[]*guest.Conn) (crash *guest.CrashError) {
	m := e.Inst.M
	k := e.Inst.K
	defer guest.RecoverCrash(&crash)

	switch nt.Kind {
	case spec.KindConnect:
		// A real connection through the kernel's network stack.
		m.Clock.Advance(m.Cost.RealConnect)
		c, _, cerr := k.NewConnection(nt.Port)
		if cerr == nil {
			*conns = append(*conns, c)
		}
	case spec.KindPacket:
		c := e.resolveConn(op, *conns)
		if c == nil || c.Closed {
			return nil
		}
		if e.Kind == AFLppDesock {
			m.Clock.Advance(m.Cost.Syscall) // stdin write
		} else {
			m.Clock.Advance(m.Cost.RealSendRecv)
		}
		k.Deliver(c, op.Data) //nolint:errcheck // closed conns checked above
	case spec.KindClose:
		if c := e.resolveConn(op, *conns); c != nil {
			k.CloseConn(c)
		}
	case spec.KindCustom:
		// Baselines do not implement custom opcodes: handlers are
		// registered on a netemu.Agent, which baselines do not run, and no
		// target in this repo declares one (the Mario harness drives the
		// game through packet ops and is compared against Ijon, which has
		// its own executor in package mario).
	}
	return nil
}

// resolveConn maps an op's first argument to an open connection. Baselines
// do not track the typed value environment; like AFLnet they use "the
// connection" — the most recently opened one matching position, falling
// back to the last.
func (e *Executor) resolveConn(op spec.Op, conns []*guest.Conn) *guest.Conn {
	if len(conns) == 0 {
		return nil
	}
	if len(op.Args) > 0 && int(op.Args[0]) < len(conns) {
		return conns[op.Args[0]]
	}
	return conns[len(conns)-1]
}

// mergePackets destroys packet boundaries the way AFLnwe's single-blob
// replay does: all payloads of a connection arrive as one read.
func mergePackets(s *spec.Spec, ops []spec.Op) []spec.Op {
	var out []spec.Op
	var blob []byte
	var pktNode spec.NodeID
	var pktArgs []uint16
	havePkt := false
	for _, op := range ops {
		if int(op.Node) >= len(s.Nodes) {
			continue
		}
		switch s.Nodes[op.Node].Kind {
		case spec.KindPacket:
			blob = append(blob, op.Data...)
			pktNode = op.Node
			if !havePkt {
				pktArgs = op.Args
			}
			havePkt = true
		case spec.KindClose:
			// The blob replay closes the socket only after sending
			// everything; per-message closes are lost.
		default:
			out = append(out, op)
		}
	}
	if havePkt {
		out = append(out, spec.Op{Node: pktNode, Args: pktArgs, Data: blob})
	}
	return out
}
