package mario

import (
	"fmt"
	"time"

	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/netemu"
	"repro/internal/spec"
	"repro/internal/vm"
)

// CrashSolved is the pseudo-crash kind raised when the flag is reached; the
// campaign machinery reports it exactly like a crash, which gives Table 4
// its "time to solve" for free.
const CrashSolved = guest.CrashKind("level-solved")

// frameCost is the virtual CPU cost of one physics frame (rendering is
// skipped and the 60 FPS limit removed, as in Ijon's setup, §5.3).
const frameCost = 8 * time.Microsecond

// controllerPort is the pseudo-port the controller stream arrives on.
var controllerPort = guest.Port{Proto: guest.Unix, Num: 600}

// Target adapts a level to the guest target interface: packets are chunks
// of controller bytes, coverage is Ijon-style position feedback.
type Target struct {
	World, Stage int
	g            *Game
}

// NewTarget creates the target for level world-stage.
func NewTarget(world, stage int) *Target {
	return &Target{World: world, Stage: stage}
}

// Name implements guest.Target.
func (t *Target) Name() string { return "mario-" + LevelName(t.World, t.Stage) }

// Ports implements guest.Target.
func (t *Target) Ports() []guest.Port { return []guest.Port{controllerPort} }

// Init implements guest.Target: loading the level is the startup routine.
func (t *Target) Init(env *guest.Env) error {
	env.Work(2 * time.Millisecond)
	t.g = NewGame(BuildLevel(t.World, t.Stage))
	return nil
}

// OnConnect implements guest.Target.
func (t *Target) OnConnect(env *guest.Env, c *guest.Conn) { env.Cov(1) }

// OnDisconnect implements guest.Target.
func (t *Target) OnDisconnect(env *guest.Env, c *guest.Conn) {}

// OnPacket implements guest.Target: each byte is FramesPerInput frames of
// held buttons. Feedback after every input byte: the maximum x reached
// (Ijon's annotation) plus an (x, y) position probe so vertical progress
// in the 2-1 well is also rewarded.
func (t *Target) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	env.Work(time.Duration(len(data)*FramesPerInput) * frameCost)
	for _, b := range data {
		for f := 0; f < FramesPerInput; f++ {
			t.g.Step(b)
		}
		if t.g.Dead {
			env.Cov(2)
			return
		}
		env.Cov(1000 + uint32(t.g.MaxX*2))
		env.Cov(100000 + uint32(t.g.X/2)*64 + uint32(t.g.Y))
		if t.g.Won {
			env.Crash(CrashSolved, "level %s solved at frame %d (wall jumps: %d)",
				LevelName(t.World, t.Stage), t.g.Frame, t.g.WallJumps)
		}
	}
}

// SaveState implements guest.Target.
func (t *Target) SaveState(w *guest.StateWriter) {
	g := t.g
	w.F64(g.X)
	w.F64(g.Y)
	w.F64(g.VX)
	w.F64(g.VY)
	w.Bool(g.OnGround)
	w.Int(g.Frame)
	w.F64(g.MaxX)
	w.Bool(g.Dead)
	w.Bool(g.Won)
	w.Int(g.WallJumps)
	w.Bool(g.PrevJump)
	w.U32(uint32(len(g.Enemies)))
	for _, e := range g.Enemies {
		w.F64(e.X)
		w.F64(e.Y)
		w.F64(e.Dir)
		w.Bool(e.Alive)
	}
}

// LoadState implements guest.Target.
func (t *Target) LoadState(r *guest.StateReader) {
	if t.g == nil {
		t.g = NewGame(BuildLevel(t.World, t.Stage))
	}
	g := t.g
	g.X = r.F64()
	g.Y = r.F64()
	g.VX = r.F64()
	g.VY = r.F64()
	g.OnGround = r.Bool()
	g.Frame = r.Int()
	g.MaxX = r.F64()
	g.Dead = r.Bool()
	g.Won = r.Bool()
	g.WallJumps = r.Int()
	g.PrevJump = r.Bool()
	n := r.Count(3*8 + 1)
	g.Enemies = g.Enemies[:0]
	for i := 0; i < n; i++ {
		e := Enemy{X: r.F64(), Y: r.F64(), Dir: r.F64()}
		e.Alive = r.Bool()
		g.Enemies = append(g.Enemies, e)
	}
}

// Instance is a launched Mario level ready for fuzzing.
type Instance struct {
	M      *vm.Machine
	K      *guest.Kernel
	Agent  *netemu.Agent
	Spec   *spec.Spec
	Target *Target
}

// Launch boots the given level in a fresh VM and takes the root snapshot.
func Launch(world, stage int) (*Instance, error) {
	m := vm.New(vm.Config{MemoryPages: 2048, DiskSectors: 1 << 10})
	tgt := NewTarget(world, stage)
	k, err := guest.NewKernel(m, tgt)
	if err != nil {
		return nil, fmt.Errorf("mario: %w", err)
	}
	if err := m.Hypercall(vm.HcReady); err != nil {
		return nil, err
	}
	s := spec.RawPacketSpec(tgt.Name(), tgt.Ports())
	return &Instance{M: m, K: k, Agent: netemu.New(m, k, s), Spec: s, Target: tgt}, nil
}

// Seeds returns starter inputs: run right with occasional jumps, split into
// multi-byte packets so the snapshot placement policies have packet
// boundaries to work with.
func (inst *Instance) Seeds() []*spec.Input {
	hold := func(pattern []byte, packets int) *spec.Input {
		con, _ := inst.Spec.NodeByName(fmt.Sprintf("connect_%s_%d", controllerPort.Proto, controllerPort.Num))
		pkt, _ := inst.Spec.NodeByName("packet")
		in := spec.NewInput(spec.Op{Node: con})
		for i := 0; i < packets; i++ {
			in.Ops = append(in.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: append([]byte(nil), pattern...)})
		}
		return in
	}
	// Seeds cover only the opening stretch of a level (the paper's seeds
	// are partial traces too); the fuzzer must learn the jumps and extend
	// the input to reach the flag.
	runJump := []byte{
		BtnRight | BtnRun, BtnRight | BtnRun, BtnRight | BtnRun | BtnJump,
		BtnRight | BtnRun | BtnJump, BtnRight | BtnRun, BtnRight | BtnRun,
		BtnRight | BtnRun | BtnJump, BtnRight,
	}
	runOnly := []byte{
		BtnRight | BtnRun, BtnRight | BtnRun, BtnRight | BtnRun, BtnRight | BtnRun,
		BtnRight | BtnRun, BtnRight | BtnRun, BtnRight | BtnRun, BtnRight | BtnRun,
	}
	return []*spec.Input{hold(runJump, 5), hold(runOnly, 5)}
}

// Dict returns controller-byte tokens for the mutator.
func (inst *Instance) Dict() [][]byte {
	return [][]byte{
		{BtnRight | BtnRun}, {BtnRight | BtnRun | BtnJump}, {BtnRight | BtnJump},
		{BtnLeft | BtnJump}, {BtnLeft}, {BtnJump}, {0},
		{BtnRight | BtnRun, BtnRight | BtnRun, BtnRight | BtnRun | BtnJump, BtnRight | BtnRun | BtnJump},
		{BtnRight | BtnJump, BtnRight | BtnJump, BtnLeft | BtnJump, BtnLeft | BtnJump},
	}
}

// IjonExecutor wraps the agent to model Ijon's execution: the same game
// and feedback, but no snapshots and a per-execution emulator restart
// overhead. Table 4 compares it against the three Nyx-Net policies.
type IjonExecutor struct {
	Agent *netemu.Agent
	// Overhead is the per-execution restart cost.
	Overhead time.Duration
}

// NewIjon wraps a launched instance as an Ijon executor.
func NewIjon(inst *Instance) *IjonExecutor {
	return &IjonExecutor{Agent: inst.Agent, Overhead: 4 * time.Millisecond}
}

// RunFromRoot implements core.Executor. Ijon cannot snapshot, and a root
// run takes none.
func (e *IjonExecutor) RunFromRoot(in *spec.Input, tr *coverage.Trace) (netemu.Result, error) {
	e.Agent.M.Clock.Advance(e.Overhead)
	return e.Agent.RunFromRoot(in, tr)
}

// Now implements core.Executor.
func (e *IjonExecutor) Now() time.Duration { return e.Agent.M.Clock.Now() }
