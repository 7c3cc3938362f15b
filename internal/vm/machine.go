package vm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/mem"
)

// Hypercall identifies a request from the in-guest agent to the hypervisor,
// the VM-exit analogue of §2.3 ("hypercalls are like syscalls but for VMs").
type Hypercall int

// Hypercall numbers understood by the machine.
const (
	// HcReady signals that the target finished initialization and is
	// about to consume the first byte of fuzz input; the hypervisor
	// responds by taking the root snapshot.
	HcReady Hypercall = iota
	// HcSnapshot requests an incremental snapshot at the current state
	// (emitted by the special snapshot opcode, §4.3). The opcode's slot
	// operand travels through SnapshotHypercall; without one it is slot 0.
	HcSnapshot
	// HcReleaseSnapshot tells the hypervisor the agent is done with its
	// snapshot. Only the VM exit is charged: the slot's buffers stay for
	// the next take of the same id, and a slot is freed by the host-side
	// DropSlot.
	HcReleaseSnapshot
	// HcExecDone signals the end of a test case.
	HcExecDone
	// HcPanic reports a crash in the target.
	HcPanic
)

// ErrNotReady is returned when snapshot operations are attempted before the
// agent signalled readiness.
var ErrNotReady = errors.New("vm: agent has not signalled readiness (no root snapshot)")

// Config describes a machine to build.
type Config struct {
	// MemoryPages is the number of 4 KiB guest physical pages.
	MemoryPages int
	// DiskSectors is the size of the primary disk.
	DiskSectors uint64
	// Cost is the virtual-time cost model; zero value means default.
	Cost CostModel
}

// Machine is the simulated whole-system VM: memory, devices, virtual clock.
// A fuzzer drives it through the snapshot lifecycle; the guest kernel
// (package guest) runs targets inside it.
type Machine struct {
	Mem     *mem.Memory
	Devices *device.Set
	Disk    *device.BlockDevice
	NIC     *device.NIC
	Serial  *device.Serial
	Clock   *Clock
	Cost    CostModel

	rootTaken bool

	// captures is the number of the machine's last capture: every TakeRoot
	// and TakeIncrementalSlot, and a clone's shared root, takes the next one
	// (see SnapshotHooks.Restored). rootCapture is the root's.
	captures    uint64
	rootCapture uint64

	// slots holds the per-slot device captures of the incremental
	// snapshots, keyed by the same slot ids as the memory overlays (guest
	// kernel state needs no table of its own: it is serialized into guest
	// memory and follows the memory snapshot). lastSlot caches the most
	// recently restored entry so the hot case — restoring the same slot
	// back to back — skips the table lookup; any take or drop of that id,
	// and a new root, invalidates it.
	slots      map[int]machSlot
	lastSlotID int
	lastSlot   machSlot
	lastValid  bool

	// restores counts the restores of both kinds that got past their checks:
	// it picks the one in restoreSample the machine times (see timeRestore).
	restores uint64

	// GuestHooks let the guest kernel participate in snapshots: its
	// bookkeeping (process table, fd table, target state) lives in Go
	// structs and must be written into guest memory before a capture and
	// re-read after a restore.
	GuestHooks SnapshotHooks

	stats MachineStats
}

// SnapshotHooks are the guest kernel's half of the coherence contract
// between its struct-form state and guest memory (the three states — clean,
// dirty, stale — are defined in package guest). Any hook may be nil.
//
// Guest memory holds the guest's state only when the host captures it. The
// machine calls Flush exactly once before every capture — TakeRoot,
// TakeIncrementalSlot, SnapshotHypercall and the hypercalls that take one
// (HcReady, HcSnapshot) — so the snapshot holds the guest's current state;
// the guest promises that Flush leaves guest memory a function of its state
// alone and is a no-op when memory is already current. A restore throws the
// state away instead: RestoreRoot and RestoreIncrementalSlot call Discard
// exactly once, once the restore can no longer fail and before memory is
// touched. Discard drops the dirty state without writing it and returns the
// byte range a Flush would have written (n = 0 for none), which the restore
// marks dirty (mem.Memory.Discard) and so resets and charges as if it had
// been written. That is exact only if no guest event ran between the end of
// the last test case and the restore: the range is what a flush at the end
// of the test case would have written. The informational hypercalls
// (HcExecDone, HcPanic, HcReleaseSnapshot) call neither hook.
//
// After a restore replaced guest memory the machine calls Restored with the
// capture number of the snapshot it brought back, and the guest treats its
// struct form as behind memory from then on. Every capture gets the next
// number of the machine's sequence, which starts at 1: TakeRoot, every
// TakeIncrementalSlot (a re-take of a slot id gets a new one) and the shared
// root of a CloneSharedRoot clone. Guest memory after a restore holds exactly
// what it held at that capture, so the number names the image: a guest that
// kept what it decoded from capture c's image may rebuild its state from that
// on a restore of c instead of reading memory again, and reuses what it
// decoded only for the capture it decoded. The capture number is the guest's
// one reuse key: it picks the path for the whole guest state, and no byte
// compare is involved anywhere.
type SnapshotHooks struct {
	Flush    func()
	Discard  func() (off int64, n int)
	Restored func(capture uint64)
}

// MachineStats aggregates snapshot counters and timing.
type MachineStats struct {
	RootRestores    uint64
	IncCreates      uint64
	IncRestores     uint64
	Hypercalls      uint64
	VirtualTimeUsed time.Duration
	// RestoreWall estimates the real (wall-clock) time the restore paths
	// spent — the quantity the simulated virtual clock models, measured so
	// the restore's cost on hardware can be read beside the cost model:
	// bench/ reports it as vm.restore_ns_per_exec, and nyx-net prints it on
	// its restore line. A clock read costs about what a restore does, so
	// the machine times one restore in restoreSample (64), the first and
	// then every 64th of both kinds together, and adds 64 times what that one
	// took. Telemetry only; nothing deterministic reads it.
	RestoreWall time.Duration

	// PagesCoWBroken counts writes that copied a restored page out of its
	// copy-on-write alias (mem.Stats.PagesCoWBroken): a restore aliases
	// every page it resets, so this is the restore cycle's whole copy cost.
	PagesCoWBroken uint64

	// PagesEagerCopied, EagerHits, EagerMisses and SectorsEagerCopied
	// always read 0: restores alias only and copy nothing up front. They
	// are kept only because bench/ reads them (mem.eager_hit_rate,
	// mem.pages_eager_copied_per_exec, device.sectors_eager_copied), and go
	// when those metrics leave BENCHMARK.json.
	PagesEagerCopied   uint64
	EagerHits          uint64
	EagerMisses        uint64
	SectorsEagerCopied uint64
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if cfg.MemoryPages == 0 {
		cfg.MemoryPages = 16384 // 64 MiB default
	}
	if cfg.DiskSectors == 0 {
		cfg.DiskSectors = 1 << 16
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	m := &Machine{
		Mem:    mem.New(cfg.MemoryPages),
		Disk:   device.NewBlockDevice("disk0", cfg.DiskSectors),
		NIC:    device.NewNIC("eth0"),
		Serial: device.NewSerial("ttyS0"),
		Clock:  &Clock{},
		Cost:   cfg.Cost,
	}
	m.Devices = device.NewSet(m.Disk, m.NIC, m.Serial)
	return m
}

// Stats returns a copy of the machine statistics; PagesCoWBroken is read
// through from the memory layer.
func (m *Machine) Stats() MachineStats {
	st := m.stats
	st.VirtualTimeUsed = m.Clock.Now()
	st.PagesCoWBroken = m.Mem.Stats().PagesCoWBroken
	return st
}

// flushGuest brings guest memory up to date with the guest kernel's state
// before a capture (SnapshotHooks.Flush).
func (m *Machine) flushGuest() {
	if m.GuestHooks.Flush != nil {
		m.GuestHooks.Flush()
	}
}

// discardGuest drops the guest kernel's unwritten state before a restore
// and marks the pages its flush would have written dirty, so the restore
// resets and charges them (SnapshotHooks.Discard).
func (m *Machine) discardGuest() {
	if m.GuestHooks.Discard != nil {
		if off, n := m.GuestHooks.Discard(); n > 0 {
			m.Mem.Discard(off, n)
		}
	}
}

// restoredGuest tells the guest kernel that a restore brought back the
// capture numbered capture (SnapshotHooks.Restored).
func (m *Machine) restoredGuest(capture uint64) {
	if m.GuestHooks.Restored != nil {
		m.GuestHooks.Restored(capture)
	}
}

// HasRoot reports whether the root snapshot exists.
func (m *Machine) HasRoot() bool { return m.rootTaken }

// DirtyPages returns the number of guest pages dirtied since the last
// snapshot point.
func (m *Machine) DirtyPages() int { return m.Mem.DirtyCount() }

// TakeRoot captures the root snapshot of the whole VM. Expensive (full
// memory copy) but performed once per campaign.
func (m *Machine) TakeRoot() {
	m.flushGuest()
	m.Mem.TakeRoot()
	m.captures++
	m.rootCapture = m.captures
	m.Devices.TakeRoot()
	m.slots = nil // slots captured deltas against the previous root
	m.lastValid = false
	m.rootTaken = true
}

// chargeReset charges the virtual clock for resetting ndirty pages plus the
// structured device reset.
//
// ndirty counts every page the restore reset (mem's PagesReset) and the
// device half charges every sector that differs from the root image
// (DirtySectors): the charge follows what the restore must undo, never how
// it undoes it, so the aliasing layers below change wall cost only.
func (m *Machine) chargeReset(base time.Duration, ndirty int) {
	d := base + time.Duration(ndirty)*m.Cost.PerDirtyPage + m.Cost.DeviceResetFast
	d += time.Duration(m.Disk.DirtySectors()) * m.Cost.PerDirtySector
	m.Clock.Advance(d)
}

// RestoreRoot resets the whole VM to the root snapshot, charging the
// virtual clock per page actually reset. The count comes from the memory
// layer's stats rather than DirtyCount: when the state derives from a
// pooled snapshot slot, the restore also resets the slot's overlay pages,
// and skipping that charge would hand snapshot rounds free restore work in
// the equal-virtual-time ablations.
func (m *Machine) RestoreRoot() error {
	if !m.rootTaken {
		return ErrNotReady
	}
	m.discardGuest()
	defer m.timeRestore(m.startRestore())
	before := m.Mem.Stats().PagesReset
	if err := m.Mem.RestoreRoot(); err != nil {
		return err
	}
	m.chargeReset(m.Cost.RootRestoreBase, int(m.Mem.Stats().PagesReset-before))
	m.Devices.RestoreRoot()
	m.restoredGuest(m.rootCapture)
	m.stats.RootRestores++
	return nil
}

// restoreSample is the stride of RestoreWall's sample: one restore in
// restoreSample reads the wall clock.
const restoreSample = 64

// startRestore counts a restore and returns the wall time it starts at if it
// is one the machine times, or the zero Time. The count, not a random draw,
// picks it, so no seeded stream moves. RestoreWall measures real restore
// cost and never steers virtual time.
func (m *Machine) startRestore() time.Time {
	m.restores++
	if m.restores%restoreSample != 1 {
		return time.Time{}
	}
	return time.Now()
}

// timeRestore adds restoreSample times the interval since t0 to RestoreWall
// for a restore startRestore timed.
func (m *Machine) timeRestore(t0 time.Time) {
	if !t0.IsZero() {
		m.stats.RestoreWall += restoreSample * time.Since(t0)
	}
}

// ---- Incremental snapshot slots ----

// TakeIncrementalSlot captures the whole-VM state (memory delta, devices)
// into snapshot slot id. The slot survives root restores and restores of
// other slots, and the state being captured may itself derive from another
// slot (chained creation). The virtual clock is charged per page actually
// copied, so a chained capture pays for the inherited overlay it folds in.
func (m *Machine) TakeIncrementalSlot(id int) error {
	if !m.rootTaken {
		return ErrNotReady
	}
	m.flushGuest()
	copied, err := m.Mem.TakeIncrementalSlot(id)
	if err != nil {
		return err
	}
	m.Clock.Advance(m.Cost.IncCreateBase + time.Duration(copied)*m.Cost.PerDirtyPage)
	if m.slots == nil {
		m.slots = make(map[int]machSlot)
	}
	devs := m.Devices.SaveSnapshots()
	var devBytes int64
	for _, d := range devs {
		devBytes += device.SnapshotBytes(d)
	}
	m.captures++
	m.slots[id] = machSlot{devs: devs, devBytes: devBytes, capture: m.captures}
	if m.lastValid && m.lastSlotID == id {
		m.lastValid = false
	}
	m.stats.IncCreates++
	return nil
}

// machSlot is the machine-level half of one incremental snapshot: the device
// captures, their byte charge and the capture number (the memory overlay
// lives in mem).
type machSlot struct {
	devs     []device.Snapshot
	devBytes int64
	capture  uint64
}

// RestoreIncrementalSlot resets the whole VM to snapshot slot id, charging
// reset cost per page the switch actually touched: restoring the slot the
// state already derives from costs the dirty set, switching slots
// additionally costs the two overlays' deltas.
func (m *Machine) RestoreIncrementalSlot(id int) error {
	ms := m.lastSlot
	if !m.lastValid || m.lastSlotID != id {
		var ok bool
		ms, ok = m.slots[id]
		if !ok {
			return mem.ErrNoIncrementalSnapshot
		}
		m.lastSlotID, m.lastSlot, m.lastValid = id, ms, true
	}
	m.discardGuest()
	defer m.timeRestore(m.startRestore())
	reset, err := m.Mem.RestoreIncrementalSlot(id)
	if err != nil {
		return err
	}
	m.chargeReset(m.Cost.IncRestoreBase, reset)
	m.Devices.LoadSnapshots(ms.devs)
	m.restoredGuest(ms.capture)
	m.stats.IncRestores++
	return nil
}

// DropSlot discards snapshot slot id, freeing its memory overlay and device
// captures. Eviction is a host-side decision, so no virtual time is
// charged (no VM exit is involved).
func (m *Machine) DropSlot(id int) {
	m.Mem.DropSlot(id)
	delete(m.slots, id)
	if m.lastValid && m.lastSlotID == id {
		m.lastValid = false
	}
}

// HasSlot reports whether snapshot slot id is restorable.
func (m *Machine) HasSlot(id int) bool {
	_, ok := m.slots[id]
	return ok && m.Mem.HasSlot(id)
}

// SlotBytes returns the bytes slot id holds — the guest-memory overlay
// plus the device captures (disk sector delta, NIC rings, serial log) —
// the per-slot charge a snapshot pool accounts against its byte budget.
func (m *Machine) SlotBytes(id int) int64 {
	return m.Mem.SlotBytes(id) + m.slots[id].devBytes
}

// SnapshotHypercall dispatches the slot-carrying variant of HcSnapshot: the
// agent requests an incremental snapshot into a named slot (the paper's
// snapshot opcode, extended with a slot argument). Charges VM-exit cost
// like any other hypercall; the guest flush of this VM exit is the one
// TakeIncrementalSlot performs.
func (m *Machine) SnapshotHypercall(slot int) error {
	m.Clock.Advance(m.Cost.HypercallEntry)
	m.stats.Hypercalls++
	return m.TakeIncrementalSlot(slot)
}

// Hypercall dispatches an agent hypercall, charging VM-exit cost. Only the
// snapshot-taking calls write the guest's state into memory, in
// TakeRoot/TakeIncrementalSlot (see SnapshotHooks); the informational ones
// leave memory alone, and the restore that follows them charges the pages a
// flush would have written.
func (m *Machine) Hypercall(hc Hypercall) error {
	m.Clock.Advance(m.Cost.HypercallEntry)
	m.stats.Hypercalls++
	switch hc {
	case HcReady:
		m.TakeRoot()
		return nil
	case HcSnapshot:
		return m.TakeIncrementalSlot(0)
	case HcReleaseSnapshot, HcExecDone, HcPanic:
		return nil // handled by the agent and the fuzzer run loop
	default:
		return fmt.Errorf("vm: unknown hypercall %d", hc)
	}
}

// CloneSharedRoot builds a second machine that shares this machine's root
// snapshot copy-on-write (§5.3 Scalability). Devices are rebuilt at root
// state; the clone gets its own virtual clock and its own capture sequence,
// in which the shared root is the first capture.
func (m *Machine) CloneSharedRoot() (*Machine, error) {
	if !m.rootTaken {
		return nil, ErrNotReady
	}
	cm, err := m.Mem.CloneSharedRoot()
	if err != nil {
		return nil, err
	}
	c := &Machine{
		Mem:         cm,
		Disk:        device.NewBlockDevice("disk0", m.Disk.NumSectors()),
		NIC:         device.NewNIC("eth0"),
		Serial:      device.NewSerial("ttyS0"),
		Clock:       &Clock{},
		Cost:        m.Cost,
		rootTaken:   true,
		captures:    1,
		rootCapture: 1,
	}
	c.Devices = device.NewSet(c.Disk, c.NIC, c.Serial)
	c.Devices.TakeRoot()
	return c, nil
}

// OwnedBytes estimates the memory owned exclusively by this machine (the
// scalability metric: N clones sharing one root should cost far less than N
// full copies).
func (m *Machine) OwnedBytes() int64 { return m.Mem.OwnedBytes() }
