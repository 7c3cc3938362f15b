package vm

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/mem"
)

func newTestMachine(t *testing.T) *Machine {
	t.Helper()
	return New(Config{MemoryPages: 256, DiskSectors: 64})
}

func TestSnapshotLifecycle(t *testing.T) {
	m := newTestMachine(t)
	if err := m.RestoreRoot(); err != ErrNotReady {
		t.Fatalf("expected ErrNotReady, got %v", err)
	}

	m.Mem.WriteAt([]byte("init"), 0)
	if err := m.Hypercall(HcReady); err != nil {
		t.Fatal(err)
	}
	if !m.HasRoot() {
		t.Fatal("root snapshot missing after HcReady")
	}

	m.Mem.WriteAt([]byte("pref"), 0)
	if err := m.Hypercall(HcSnapshot); err != nil {
		t.Fatal(err)
	}
	m.Mem.WriteAt([]byte("case"), 0)
	if err := m.RestoreIncrementalSlot(0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	m.Mem.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte("pref")) {
		t.Fatalf("incremental restore: got %q want %q", buf, "pref")
	}

	// Releasing costs the VM exit and nothing else: the slot's buffers
	// stay with the machine for the next take.
	t0, calls := m.Clock.Now(), m.Stats().Hypercalls
	if err := m.Hypercall(HcReleaseSnapshot); err != nil {
		t.Fatal(err)
	}
	if got := m.Clock.Now() - t0; got != m.Cost.HypercallEntry {
		t.Fatalf("release charged %v, want one hypercall entry %v", got, m.Cost.HypercallEntry)
	}
	if m.Stats().Hypercalls != calls+1 || !m.HasSlot(0) {
		t.Fatalf("release: hypercalls %d→%d, slot kept = %v", calls, m.Stats().Hypercalls, m.HasSlot(0))
	}

	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	m.Mem.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte("init")) {
		t.Fatalf("root restore: got %q want %q", buf, "init")
	}
}

func TestClockAdvancesOnResets(t *testing.T) {
	m := newTestMachine(t)
	m.TakeRoot()
	t0 := m.Clock.Now()
	m.Mem.WriteAt(make([]byte, 10*mem.PageSize), 0)
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	elapsed := m.Clock.Now() - t0
	want := m.Cost.RootRestoreBase // at least the base cost
	if elapsed < want {
		t.Fatalf("reset charged %v, want >= %v", elapsed, want)
	}
}

func TestResetCostScalesWithDirtyPages(t *testing.T) {
	timeFor := func(pages int) time.Duration {
		m := newTestMachine(t)
		m.TakeRoot()
		t0 := m.Clock.Now()
		m.Mem.WriteAt(make([]byte, pages*mem.PageSize), 0)
		m.RestoreRoot()
		return m.Clock.Now() - t0
	}
	small, large := timeFor(2), timeFor(200)
	if large <= small {
		t.Fatalf("200-page reset (%v) should cost more than 2-page (%v)", large, small)
	}
}

// TestGuestHooksInvoked holds the machine to the restore hook's contract:
// every restore calls Restored once, with the number of the capture it
// brought back, and memory then holds what it held at that capture. Numbers
// come from one sequence per machine, starting at 1: the root, every take of a
// slot — a re-take of the same slot id too — and a re-taken root each get the
// next one, and restoring a capture again reports it again. A
// CloneSharedRoot clone's shared root is the first capture of the clone's
// own sequence.
func TestGuestHooksInvoked(t *testing.T) {
	m := newTestMachine(t)
	var got []uint64
	m.GuestHooks = SnapshotHooks{Restored: func(c uint64) { got = append(got, c) }}
	stamp := func(m *Machine, b byte) {
		t.Helper()
		if _, err := m.Mem.WriteAt([]byte{b}, 0); err != nil {
			t.Fatal(err)
		}
	}
	restore := func(m *Machine, slot int, want byte) {
		t.Helper()
		var err error
		if slot < 0 {
			err = m.RestoreRoot()
		} else {
			err = m.RestoreIncrementalSlot(slot)
		}
		if err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		m.Mem.ReadAt(b[:], 0)
		if b[0] != want {
			t.Fatalf("restore of %d: memory holds stamp %d, the capture held %d", slot, b[0], want)
		}
	}
	stamp(m, 10)
	m.TakeRoot() // capture 1
	stamp(m, 11)
	if err := m.TakeIncrementalSlot(0); err != nil { // capture 2
		t.Fatal(err)
	}
	stamp(m, 12)
	restore(m, 0, 11)
	restore(m, 0, 11)
	stamp(m, 13)
	if err := m.TakeIncrementalSlot(0); err != nil { // capture 3: a re-take of slot 0
		t.Fatal(err)
	}
	stamp(m, 14)
	restore(m, 0, 13)
	restore(m, -1, 10)
	restore(m, 0, 13)
	m.DropSlot(0)
	restore(m, -1, 10)
	stamp(m, 15)
	m.TakeRoot() // capture 4: a re-taken root
	stamp(m, 16)
	restore(m, -1, 15)
	if want := []uint64{2, 2, 3, 1, 3, 1, 4}; !slices.Equal(got, want) {
		t.Fatalf("restores reported captures %v, want %v", got, want)
	}

	c, err := m.CloneSharedRoot()
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	c.GuestHooks = m.GuestHooks
	stamp(c, 20)
	if err := c.TakeIncrementalSlot(0); err != nil { // the clone's capture 2
		t.Fatal(err)
	}
	restore(c, -1, 15)
	restore(c, 0, 20)
	if want := []uint64{1, 2}; !slices.Equal(got, want) {
		t.Fatalf("the clone's restores reported captures %v, want %v", got, want)
	}
}

// The machine's half of the coherence contract (SnapshotHooks): every capture
// calls Flush exactly once, before it copies memory; every restore calls
// Discard exactly once, once it can no longer fail and before it touches
// memory, and resets the range Discard returns as if it had been written; an
// informational VM exit calls neither. The Flush hook stamps a fresh byte
// into page 0 on every call, so a take captures the stamp of its own flush
// (checked when that snapshot is restored). The Discard hook writes nothing,
// notes which stamp memory held when it ran, and hands back a range on page
// 3, which nothing writes: a restore of the slot the state already derives
// from, with nothing else dirty, resets exactly that page.
func TestFlushHookFiresOnceBeforeEachMemoryOp(t *testing.T) {
	m := newTestMachine(t)
	var flushes, discards int
	var stamp, seen byte
	m.GuestHooks.Flush = func() {
		flushes++
		stamp++
		m.Mem.WriteAt([]byte{stamp}, 0)
	}
	m.GuestHooks.Discard = func() (int64, int) {
		discards++
		var b [1]byte
		m.Mem.ReadAt(b[:], 0)
		seen = b[0]
		return 3*mem.PageSize + 100, 20
	}
	for _, fail := range []func() error{m.RestoreRoot, func() error { return m.RestoreIncrementalSlot(9) }} {
		if fail() == nil || discards != 0 {
			t.Fatalf("a restore with nothing to restore succeeded or called Discard (%d calls)", discards)
		}
	}
	const current = 0 // after the call, memory holds the stamp it held before
	const capture, exit, restore = 0, 1, 2
	steps := []struct {
		name  string
		kind  int
		call  func() error
		after byte // stamp memory must hold afterwards, or current
		reset int  // pages a restore must reset, or -1 for at least one
	}{
		{"Hypercall(HcReady)", capture, func() error { return m.Hypercall(HcReady) }, current, 0},
		{"TakeRoot", capture, func() error { m.TakeRoot(); return nil }, current, 0}, // stamp 2 is the root's
		{"SnapshotHypercall(1)", capture, func() error { return m.SnapshotHypercall(1) }, current, 0},
		{"Hypercall(HcSnapshot)", capture, func() error { return m.Hypercall(HcSnapshot) }, current, 0},
		{"TakeIncrementalSlot(2)", capture, func() error { return m.TakeIncrementalSlot(2) }, current, 0},
		{"Hypercall(HcExecDone)", exit, func() error { return m.Hypercall(HcExecDone) }, current, 0},
		{"Hypercall(HcPanic)", exit, func() error { return m.Hypercall(HcPanic) }, current, 0},
		{"Hypercall(HcReleaseSnapshot)", exit, func() error { return m.Hypercall(HcReleaseSnapshot) }, current, 0},
		{"RestoreIncrementalSlot(2) again", restore, func() error { return m.RestoreIncrementalSlot(2) }, 5, 1},
		{"RestoreIncrementalSlot(1)", restore, func() error { return m.RestoreIncrementalSlot(1) }, 3, -1},
		{"RestoreIncrementalSlot(0)", restore, func() error { return m.RestoreIncrementalSlot(0) }, 4, -1},
		{"RestoreRoot", restore, m.RestoreRoot, 2, -1},
		{"RestoreRoot again", restore, m.RestoreRoot, 2, 1},
	}
	for _, st := range steps {
		var before [1]byte
		m.Mem.ReadAt(before[:], 0)
		f, d, reset := flushes, discards, m.Mem.Stats().PagesReset
		if err := st.call(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		wantF, wantD := 0, 0
		switch st.kind {
		case capture:
			wantF = 1
		case restore:
			wantD = 1
		}
		if flushes-f != wantF || discards-d != wantD {
			t.Fatalf("%s: flush hook fired %d times (want %d), discard hook %d (want %d)", st.name, flushes-f, wantF, discards-d, wantD)
		}
		want := st.after
		if want == current {
			want = stamp
		}
		var got [1]byte
		m.Mem.ReadAt(got[:], 0)
		if got[0] != want {
			t.Fatalf("%s: memory holds stamp %d afterwards, want %d (hook ran on the wrong side of the operation)", st.name, got[0], want)
		}
		if st.kind != restore {
			continue
		}
		if seen != before[0] {
			t.Fatalf("%s: the discard hook saw stamp %d, not the %d memory held before the restore", st.name, seen, before[0])
		}
		// The discarded page is part of what a restore resets.
		switch n := int(m.Mem.Stats().PagesReset - reset); {
		case st.reset >= 0 && n != st.reset:
			t.Fatalf("%s: restore reset %d pages, want %d (the discarded one)", st.name, n, st.reset)
		case n == 0:
			t.Fatalf("%s: restore reset no page", st.name)
		}
	}
}

func TestUnknownHypercall(t *testing.T) {
	m := newTestMachine(t)
	if err := m.Hypercall(Hypercall(99)); err == nil {
		t.Fatal("expected error for unknown hypercall")
	}
}

func TestCloneSharedRootIsolation(t *testing.T) {
	m := newTestMachine(t)
	m.Mem.WriteAt([]byte("root"), 0)
	m.TakeRoot()
	c, err := m.CloneSharedRoot()
	if err != nil {
		t.Fatal(err)
	}

	// Clone sees root content.
	buf := make([]byte, 4)
	c.Mem.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte("root")) {
		t.Fatalf("clone reads %q, want %q", buf, "root")
	}

	// Writes in the clone do not affect the parent and vice versa.
	c.Mem.WriteAt([]byte("CCCC"), 0)
	m.Mem.WriteAt([]byte("PPPP"), 8)
	m.Mem.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte("root")) {
		t.Fatalf("parent corrupted by clone write: %q", buf)
	}
	c.Mem.ReadAt(buf, 8)
	if !bytes.Equal(buf, []byte{0, 0, 0, 0}) {
		t.Fatalf("clone sees parent write: %q", buf)
	}

	// Clone restores to the shared root.
	if err := c.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	c.Mem.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte("root")) {
		t.Fatalf("clone root restore: got %q", buf)
	}
}

func TestCloneSharedRootMemoryFootprint(t *testing.T) {
	// An 80-instance fleet sharing a root snapshot should use roughly 2x
	// the memory of one instance, not 80x (§5.3).
	m := New(Config{MemoryPages: 2048})
	big := make([]byte, 1024*mem.PageSize)
	for i := range big {
		big[i] = byte(i)
	}
	m.Mem.WriteAt(big, 0)
	m.TakeRoot()
	single := m.OwnedBytes()

	total := single
	for i := 0; i < 79; i++ {
		c, err := m.CloneSharedRoot()
		if err != nil {
			t.Fatal(err)
		}
		// Each instance dirties a handful of pages while fuzzing.
		c.Mem.WriteAt(make([]byte, 4*mem.PageSize), 0)
		total += c.OwnedBytes()
	}
	if total > 2*single {
		t.Fatalf("80 instances use %d bytes, want <= 2x single instance (%d)", total, 2*single)
	}
}

func TestCloneRequiresRoot(t *testing.T) {
	m := newTestMachine(t)
	if _, err := m.CloneSharedRoot(); err != ErrNotReady {
		t.Fatalf("expected ErrNotReady, got %v", err)
	}
}

func TestSlotPoolWholeVMRoundTrip(t *testing.T) {
	m := newTestMachine(t)
	m.Mem.WriteAt([]byte("root"), 0)
	m.Serial.WriteString("boot\n")
	m.Disk.WriteSector(0, bytes.Repeat([]byte{0x01}, 512))
	if err := m.Hypercall(HcReady); err != nil {
		t.Fatal(err)
	}

	// Slot 1: state A (memory, serial log, disk all advanced).
	m.Mem.WriteAt([]byte("AAAA"), 0)
	m.Serial.WriteString("state-a\n")
	m.Disk.WriteSector(1, bytes.Repeat([]byte{0xAA}, 512))
	m.NIC.Receive([]byte("frame-a"))
	if err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}

	// Back to root, then slot 2: an unrelated state B.
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	m.Mem.WriteAt([]byte("BBBB"), 0)
	m.Disk.WriteSector(2, bytes.Repeat([]byte{0xBB}, 512))
	if err := m.TakeIncrementalSlot(2); err != nil {
		t.Fatal(err)
	}

	// Restore slot 1 across the intervening root run and slot 2 creation.
	if err := m.RestoreIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	m.Mem.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte("AAAA")) {
		t.Fatalf("slot 1 memory: got %q", buf)
	}
	if got := string(m.Serial.Log); got != "boot\nstate-a\n" {
		t.Fatalf("slot 1 serial log: got %q", got)
	}
	sec := make([]byte, 512)
	m.Disk.ReadSector(1, sec)
	if sec[0] != 0xAA {
		t.Fatalf("slot 1 disk sector 1: got %#x", sec[0])
	}
	m.Disk.ReadSector(2, sec)
	if sec[0] != 0 {
		t.Fatalf("slot 2's disk write leaked into slot 1: %#x", sec[0])
	}
	if len(m.NIC.RxQueue) != 1 {
		t.Fatalf("slot 1 NIC rx queue: got %d frames, want 1", len(m.NIC.RxQueue))
	}

	// Switch straight to slot 2 without a root restore in between.
	if err := m.RestoreIncrementalSlot(2); err != nil {
		t.Fatal(err)
	}
	m.Mem.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte("BBBB")) {
		t.Fatalf("slot 2 memory: got %q", buf)
	}
	if got := string(m.Serial.Log); got != "boot\n" {
		t.Fatalf("slot 2 serial log: got %q", got)
	}
	m.Disk.ReadSector(1, sec)
	if sec[0] != 0 {
		t.Fatalf("slot 1's disk write leaked into slot 2: %#x", sec[0])
	}
}

func TestSlotDropAndErrors(t *testing.T) {
	m := newTestMachine(t)
	if err := m.TakeIncrementalSlot(1); err != ErrNotReady {
		t.Fatalf("expected ErrNotReady before root, got %v", err)
	}
	if err := m.Hypercall(HcReady); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreIncrementalSlot(1); err != mem.ErrNoIncrementalSnapshot {
		t.Fatalf("expected ErrNoIncrementalSnapshot, got %v", err)
	}
	m.Mem.WriteAt([]byte{1}, 0)
	if err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	if !m.HasSlot(1) {
		t.Fatal("slot 1 should exist")
	}
	if m.SlotBytes(1) <= 0 {
		t.Fatal("slot 1 should hold overlay bytes")
	}
	m.DropSlot(1)
	if m.HasSlot(1) {
		t.Fatal("slot 1 should be gone after drop")
	}
	if err := m.RestoreIncrementalSlot(1); err != mem.ErrNoIncrementalSnapshot {
		t.Fatalf("expected ErrNoIncrementalSnapshot after drop, got %v", err)
	}
}

// A new root drops every slot, the one the last slot restore cached
// included: a restore of that slot fails as one never taken does, before it
// calls the Discard hook, and the root restore beside it still works.
func TestRestoreAfterNewRootDiscardsNothing(t *testing.T) {
	m := newTestMachine(t)
	discards := 0
	m.GuestHooks.Discard = func() (int64, int) { discards++; return 0, 0 }
	m.TakeRoot()
	if err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreIncrementalSlot(1); err != nil { // caches slot 1
		t.Fatal(err)
	}
	m.TakeRoot()
	discards = 0
	if err := m.RestoreIncrementalSlot(1); err != mem.ErrNoIncrementalSnapshot || discards != 0 {
		t.Fatalf("restore of a slot the new root dropped: %v after %d discards, want %v after none", err, discards, mem.ErrNoIncrementalSnapshot)
	}
	if m.HasSlot(1) {
		t.Fatal("slot 1 survived the new root")
	}
	if err := m.RestoreRoot(); err != nil || discards != 1 {
		t.Fatalf("root restore after the failed one: %v after %d discards, want one", err, discards)
	}
}

// RestoreWall is an estimate from a sample: the machine reads the clock on
// one restore in 64 of both kinds together, the first among them, and adds 64
// times what that one took. So 64·k restores of one kind move it exactly k
// times, each time by a multiple of 64 ns.
func TestRestoreWallTimesOneRestoreIn64(t *testing.T) {
	m := newTestMachine(t)
	m.TakeRoot()
	if err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []struct {
		name    string
		restore func() error
	}{
		{"RestoreRoot", m.RestoreRoot},
		{"RestoreIncrementalSlot", func() error { return m.RestoreIncrementalSlot(1) }},
	} {
		const k = 5
		start := m.Stats().RestoreWall
		timed := 0
		for i := 0; i < 64*k; i++ {
			before := m.Stats().RestoreWall
			m.Mem.WriteAt([]byte{byte(i)}, 0) // one dirty page to reset
			if err := kind.restore(); err != nil {
				t.Fatal(err)
			}
			if d := m.Stats().RestoreWall - before; d != 0 {
				timed++
				if d%64 != 0 || i%64 != 0 {
					t.Fatalf("%s %d moved RestoreWall by %v: want the first of every 64, by 64 times what it took", kind.name, i, d)
				}
			}
		}
		if wall := m.Stats().RestoreWall - start; timed != k || wall <= 0 {
			t.Fatalf("%d %s calls timed %d restores and added %v, want %d and more than 0", 64*k, kind.name, timed, wall, k)
		}
	}
}

func TestSlotRestoreChargesClock(t *testing.T) {
	m := newTestMachine(t)
	if err := m.Hypercall(HcReady); err != nil {
		t.Fatal(err)
	}
	m.Mem.WriteAt(bytes.Repeat([]byte{1}, 8*mem.PageSize), 0)
	if err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	// A cheap same-slot restore (1 dirty page) must cost less than a
	// restore that resets many pages.
	m.Mem.WriteAt([]byte{2}, 0)
	t0 := m.Clock.Now()
	if err := m.RestoreIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	cheap := m.Clock.Now() - t0
	m.Mem.WriteAt(bytes.Repeat([]byte{3}, 32*mem.PageSize), 0)
	t0 = m.Clock.Now()
	if err := m.RestoreIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	expensive := m.Clock.Now() - t0
	if expensive <= cheap {
		t.Fatalf("32-page reset (%v) should cost more than 1-page reset (%v)", expensive, cheap)
	}
}

// RestoreRoot must charge for the pooled-slot overlay pages it resets, not
// just the dirty set — otherwise pool-mode campaigns get free restore work
// in the equal-virtual-time ablations.
func TestRootRestoreChargesForSlotOverlay(t *testing.T) {
	m := newTestMachine(t)
	if err := m.Hypercall(HcReady); err != nil {
		t.Fatal(err)
	}
	// Root restore with 1 dirty page and no active slot: the cheap case.
	m.Mem.WriteAt([]byte{1}, 0)
	t0 := m.Clock.Now()
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	cheap := m.Clock.Now() - t0

	// Derive the state from a 32-page slot, then restore root with the
	// same 1 dirty page: the overlay resets must be billed.
	m.Mem.WriteAt(bytes.Repeat([]byte{2}, 32*mem.PageSize), 0)
	if err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	m.Mem.WriteAt([]byte{3}, 0)
	t0 = m.Clock.Now()
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	fromSlot := m.Clock.Now() - t0
	if fromSlot <= cheap {
		t.Fatalf("root restore from a slot-derived state (%v) must cost more than a dirty-only restore (%v)", fromSlot, cheap)
	}
}

// SlotBytes must charge device captures (disk delta, serial log) alongside
// the memory overlay, so a disk-heavy prefix cannot grow pool memory
// unbounded beneath the budget.
func TestSlotBytesIncludeDeviceCaptures(t *testing.T) {
	m := newTestMachine(t)
	if err := m.Hypercall(HcReady); err != nil {
		t.Fatal(err)
	}
	m.Mem.WriteAt([]byte{1}, 0)
	if err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	lean := m.SlotBytes(1)

	// Same memory dirtiness, but a fat disk delta and serial log.
	for s := uint64(0); s < 16; s++ {
		m.Disk.WriteSector(s, bytes.Repeat([]byte{byte(s)}, 512))
	}
	m.Serial.WriteString("a very long boot transcript\n")
	m.Mem.WriteAt([]byte{2}, 0)
	if err := m.TakeIncrementalSlot(2); err != nil {
		t.Fatal(err)
	}
	fat := m.SlotBytes(2)
	if fat <= lean {
		t.Fatalf("device captures not charged: fat slot %d <= lean slot %d", fat, lean)
	}
	if fat-lean < 16*512 {
		t.Fatalf("disk delta undercharged: extra = %d bytes, want >= %d", fat-lean, 16*512)
	}
}

// BenchmarkSlotRestore is the whole-VM zero-copy restore benchmark the
// hotpath issue's acceptance criterion names: a pooled snapshot with a
// large frozen delta (guest pages + disk sectors) is restored repeatedly
// with varying amounts of dirt accumulated since the previous restore.
// Repeat restores must cost O(dirty-since-restore): the dirty=4 case runs
// far cheaper (>=5x) than dirty=all — and dirty=all is itself what the
// pre-change path paid on EVERY restore, since it deep-copied the full
// delta regardless of dirt (see BenchmarkBlockSnapshotRestore and
// BenchmarkSlotRestoreMem for the in-package deep-copy baselines).
func BenchmarkSlotRestore(b *testing.B) {
	const deltaPages = 2048
	const deltaSectors = 2048
	buf := make([]byte, mem.PageSize)
	sec := make([]byte, 512)
	for _, dirty := range []int{4, 64, deltaPages} {
		b.Run(fmt.Sprintf("delta=%d/dirty=%d", deltaPages, dirty), func(b *testing.B) {
			m := New(Config{MemoryPages: 4 * deltaPages, DiskSectors: 4 * deltaSectors})
			m.TakeRoot()
			for p := 0; p < deltaPages; p++ {
				copy(m.Mem.TouchPage(uint32(p)), buf)
			}
			for s := 0; s < deltaSectors; s++ {
				if err := m.Disk.WriteSector(uint64(s), sec); err != nil {
					b.Fatal(err)
				}
			}
			if err := m.TakeIncrementalSlot(1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for d := 0; d < dirty; d++ {
					m.Mem.TouchPage(uint32(d))[0] = byte(i)
				}
				for d := 0; d < dirty && d < deltaSectors; d++ {
					sec[0] = byte(i)
					if err := m.Disk.WriteSector(uint64(d), sec); err != nil {
						b.Fatal(err)
					}
				}
				if err := m.RestoreIncrementalSlot(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
