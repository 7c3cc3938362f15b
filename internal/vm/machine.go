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
	// snapshot. Only the VM exit is charged: the slot's buffers and
	// write-set profile stay for the next take of the same id, and a slot
	// is freed by the host-side DropSlot.
	HcReleaseSnapshot
	// HcExecDone signals the end of a test case.
	HcExecDone
	// HcPanic reports a crash in the target.
	HcPanic
)

// ErrNotReady is returned when snapshot operations are attempted before the
// agent signalled readiness.
var ErrNotReady = errors.New("vm: agent has not signalled readiness (no root snapshot)")

// DeviceResetMode selects between Nyx-Net's fast structured device reset
// and the QEMU-style serialize/deserialize baseline (ablation, §4.2).
type DeviceResetMode int

const (
	// DeviceResetStructured is the fast custom reset (paper default).
	DeviceResetStructured DeviceResetMode = iota
	// DeviceResetSerialize reloads devices from a serialized image, as
	// stock QEMU migration code would.
	DeviceResetSerialize
)

// Config describes a machine to build.
type Config struct {
	// MemoryPages is the number of 4 KiB guest physical pages.
	MemoryPages int
	// DiskSectors is the size of the primary disk.
	DiskSectors uint64
	// Cost is the virtual-time cost model; zero value means default.
	Cost CostModel
	// ResetMode selects the device reset implementation.
	ResetMode DeviceResetMode
	// RestoreStrategy selects dirty-page discovery during resets.
	RestoreStrategy mem.RestoreStrategy
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

	resetMode DeviceResetMode

	rootTaken    bool
	rootDevImage map[string][]byte // for the serialize-reset baseline

	// slots holds the per-slot device captures of the incremental
	// snapshots, keyed by the same slot ids as the memory overlays (guest
	// kernel state needs no table of its own: it is serialized into guest
	// memory and follows the memory snapshot). lastSlot caches the most
	// recently restored entry so the hot case — restoring the same slot
	// back to back — skips the table lookup; any take or drop of that id
	// invalidates it.
	slots      map[int]machSlot
	lastSlotID int
	lastSlot   machSlot
	lastValid  bool

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
// (HcExecDone, HcPanic, HcReleaseSnapshot) call neither hook. After a
// restore replaced guest memory the machine calls RestoreRoot or
// RestoreIncremental, and the guest treats its struct form as behind memory
// from then on.
type SnapshotHooks struct {
	Flush              func()
	Discard            func() (off int64, n int)
	RestoreRoot        func()
	RestoreIncremental func()
}

// MachineStats aggregates snapshot counters and timing.
type MachineStats struct {
	RootRestores    uint64
	IncCreates      uint64
	IncRestores     uint64
	Hypercalls      uint64
	VirtualTimeUsed time.Duration
	// RestoreWall is the accumulated real (wall-clock) time the restore
	// paths spent — the quantity the simulated virtual clock models,
	// measured so the restore's cost on hardware can be read beside the
	// cost model: bench/ reports it as vm.restore_ns_per_exec, and nyx-net
	// prints it on its restore line. Telemetry only; nothing deterministic
	// reads it.
	RestoreWall time.Duration

	// Write-set-profiled restore telemetry, surfaced from the memory and
	// disk layers: pages/sectors the profiled restore copied eagerly
	// instead of aliasing, and how the predictions graded out (a miss is
	// an eager copy never written before the next restore). All of these
	// are deterministic campaign outcomes — the eager/alias split itself
	// never changes state content or virtual-time charges.
	PagesCoWBroken     uint64
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
		Mem:       mem.New(cfg.MemoryPages),
		Disk:      device.NewBlockDevice("disk0", cfg.DiskSectors),
		NIC:       device.NewNIC("eth0"),
		Serial:    device.NewSerial("ttyS0"),
		Clock:     &Clock{},
		Cost:      cfg.Cost,
		resetMode: cfg.ResetMode,
	}
	m.Mem.Strategy = cfg.RestoreStrategy
	m.Devices = device.NewSet(m.Disk, m.NIC, m.Serial)
	return m
}

// Stats returns a copy of the machine statistics. The eager-restore
// counters are read through from the memory and disk layers so every
// consumer reports them from the same counter path.
func (m *Machine) Stats() MachineStats {
	st := m.stats
	st.VirtualTimeUsed = m.Clock.Now()
	ms := m.Mem.Stats()
	st.PagesCoWBroken = ms.PagesCoWBroken
	st.PagesEagerCopied = ms.PagesEagerCopied
	st.EagerHits = ms.EagerHits
	st.EagerMisses = ms.EagerMisses
	st.SectorsEagerCopied = m.Disk.SectorsEagerCopied
	return st
}

// SlotProfile bundles the write-set profiles of one pooled snapshot slot
// across state layers: guest-memory pages and block-device sectors. The
// snapshot pool stashes it as a unit at slot eviction, keyed by the prefix
// digest, so one digest-keyed entry persists both predictors and a
// recreated slot for the same prefix starts warm on both.
type SlotProfile struct {
	Mem     *mem.WriteProfile
	Sectors *device.SectorProfile
}

// SlotProfile returns an independent copy of slot id's write-set profiles
// (nil when neither layer has one worth keeping), for the pool to stash at
// eviction keyed by prefix digest.
func (m *Machine) SlotProfile(id int) *SlotProfile {
	p := &SlotProfile{Mem: m.Mem.SlotProfile(id)}
	for _, d := range m.slots[id].devs {
		if sp := device.SnapshotSectorProfile(d); sp != nil {
			p.Sectors = sp
			break
		}
	}
	if p.Mem == nil && p.Sectors == nil {
		return nil
	}
	return p
}

// SeedSlotProfile warms a freshly created slot's write-set profiles with
// ones stashed from a prior life of the same prefix.
func (m *Machine) SeedSlotProfile(id int, p *SlotProfile) {
	if p == nil {
		return
	}
	if p.Mem != nil {
		m.Mem.SeedSlotProfile(id, p.Mem)
	}
	if p.Sectors != nil {
		for _, d := range m.slots[id].devs {
			device.SeedSnapshotSectorProfile(d, p.Sectors)
		}
	}
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

// HasRoot reports whether the root snapshot exists.
func (m *Machine) HasRoot() bool { return m.rootTaken }

// DirtyPages returns the number of guest pages dirtied since the last
// snapshot point.
func (m *Machine) DirtyPages() int { return m.Mem.DirtyCount() }

// TakeRoot captures the root snapshot of the whole VM. Expensive (full
// memory copy) but performed once per campaign.
func (m *Machine) TakeRoot() error {
	m.flushGuest()
	m.Mem.TakeRoot()
	m.Devices.TakeRoot()
	if m.resetMode == DeviceResetSerialize {
		img, err := m.Devices.SaveAll()
		if err != nil {
			return fmt.Errorf("vm: capturing device image: %w", err)
		}
		m.rootDevImage = img
	}
	m.slots = nil // slots captured deltas against the previous root
	m.rootTaken = true
	return nil
}

// chargeReset charges the virtual clock for resetting n dirty pages plus
// device reset cost under the active strategy/mode.
//
// ndirty counts every page the restore reset, whether it was aliased or
// eagerly copied (mem counts both as PagesReset), and DirtySectors is
// materialization-compensated on the disk side — so the charge, and with
// it every virtual-time and coverage column, is byte-identical whether
// the write-set-profiled path is enabled or not (the PR-5 invariant).
func (m *Machine) chargeReset(base time.Duration, ndirty int) {
	d := base + time.Duration(ndirty)*m.Cost.PerDirtyPage
	if m.Mem.Strategy == mem.RestoreBitmapWalk {
		d += time.Duration(m.Mem.NumPages()) * m.Cost.PerBitmapPage
	}
	if m.resetMode == DeviceResetSerialize {
		d += m.Cost.DeviceResetSerial
	} else {
		d += m.Cost.DeviceResetFast
	}
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
	t0 := time.Now() //nyx:wallclock RestoreWall telemetry measures real restore cost, never virtual time
	defer func() { m.stats.RestoreWall += time.Since(t0) }()
	before := m.Mem.Stats().PagesReset
	if err := m.Mem.RestoreRoot(); err != nil {
		return err
	}
	m.chargeReset(m.Cost.RootRestoreBase, int(m.Mem.Stats().PagesReset-before))
	if m.resetMode == DeviceResetSerialize {
		if err := m.Devices.LoadAll(m.rootDevImage); err != nil {
			return err
		}
	} else {
		m.Devices.RestoreRoot()
	}
	if m.GuestHooks.RestoreRoot != nil {
		m.GuestHooks.RestoreRoot()
	}
	m.stats.RootRestores++
	return nil
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
	m.slots[id] = machSlot{devs: devs, devBytes: devBytes}
	if m.lastValid && m.lastSlotID == id {
		m.lastValid = false
	}
	m.stats.IncCreates++
	return nil
}

// machSlot is the machine-level half of one incremental snapshot: the device
// captures and their byte charge (the memory overlay lives in mem).
type machSlot struct {
	devs     []device.Snapshot
	devBytes int64
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
	t0 := time.Now() //nyx:wallclock RestoreWall telemetry measures real restore cost, never virtual time
	defer func() { m.stats.RestoreWall += time.Since(t0) }()
	reset, err := m.Mem.RestoreIncrementalSlot(id)
	if err != nil {
		return err
	}
	m.chargeReset(m.Cost.IncRestoreBase, reset)
	m.Devices.LoadSnapshots(ms.devs)
	if m.GuestHooks.RestoreIncremental != nil {
		m.GuestHooks.RestoreIncremental()
	}
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
		return m.TakeRoot()
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
// state; the clone gets its own virtual clock.
func (m *Machine) CloneSharedRoot() (*Machine, error) {
	if !m.rootTaken {
		return nil, ErrNotReady
	}
	cm, err := m.Mem.CloneSharedRoot()
	if err != nil {
		return nil, err
	}
	c := &Machine{
		Mem:       cm,
		Disk:      device.NewBlockDevice("disk0", m.Disk.NumSectors()),
		NIC:       device.NewNIC("eth0"),
		Serial:    device.NewSerial("ttyS0"),
		Clock:     &Clock{},
		Cost:      m.Cost,
		resetMode: m.resetMode,
		rootTaken: true,
	}
	c.Devices = device.NewSet(c.Disk, c.NIC, c.Serial)
	c.Devices.TakeRoot()
	return c, nil
}

// OwnedBytes estimates the memory owned exclusively by this machine (the
// scalability metric: N clones sharing one root should cost far less than N
// full copies).
func (m *Machine) OwnedBytes() int64 { return m.Mem.OwnedBytes() }
