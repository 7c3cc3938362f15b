package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func fill(t *testing.T, m *Memory, off int64, b byte, n int) {
	t.Helper()
	buf := bytes.Repeat([]byte{b}, n)
	if _, err := m.WriteAt(buf, off); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
}

func readByte(t *testing.T, m *Memory, off int64) byte {
	t.Helper()
	var b [1]byte
	if _, err := m.ReadAt(b[:], off); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	return b[0]
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(16)
	data := []byte("hello, guest physical memory")
	if _, err := m.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := m.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q != %q", got, data)
	}
}

func TestZeroPagesReadAsZero(t *testing.T) {
	m := New(4)
	buf := []byte{1, 2, 3, 4}
	if _, err := m.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0, 0}) {
		t.Fatalf("expected zeroes, got %v", buf)
	}
}

func TestCrossPageWrite(t *testing.T) {
	m := New(4)
	data := bytes.Repeat([]byte{0xAB}, PageSize+100)
	off := int64(PageSize - 50)
	if _, err := m.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := m.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip mismatch")
	}
	if m.DirtyCount() != 3 {
		t.Fatalf("expected 3 dirty pages, got %d", m.DirtyCount())
	}
}

func TestOutOfRange(t *testing.T) {
	m := New(2)
	if _, err := m.WriteAt([]byte{1}, m.Size()); err == nil {
		t.Fatal("expected error writing past end")
	}
	if _, err := m.ReadAt(make([]byte, 10), m.Size()-5); err == nil {
		t.Fatal("expected error reading past end")
	}
	if _, err := m.WriteAt([]byte{1}, -1); err == nil {
		t.Fatal("expected error at negative offset")
	}
}

func TestDirtyTrackingDeduplicates(t *testing.T) {
	m := New(8)
	for i := 0; i < 10; i++ {
		fill(t, m, 0, byte(i), 8)
	}
	if m.DirtyCount() != 1 {
		t.Fatalf("page written 10x should be dirty once, got %d", m.DirtyCount())
	}
}

func TestDirtyStackMatchesBitmap(t *testing.T) {
	m := New(64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		pn := uint32(rng.Intn(64))
		m.TouchPage(pn)[0] = byte(i)
	}
	seen := map[uint32]bool{}
	for _, pn := range m.DirtyPages() {
		if seen[pn] {
			t.Fatalf("page %d appears twice in dirty stack", pn)
		}
		seen[pn] = true
		if m.dirtyBitmap[pn] == 0 {
			t.Fatalf("page %d in stack but not bitmap", pn)
		}
	}
	for pn, b := range m.dirtyBitmap {
		if b != 0 && !seen[uint32(pn)] {
			t.Fatalf("page %d in bitmap but not stack", pn)
		}
	}
}

func TestRootRestoreRequiresSnapshot(t *testing.T) {
	m := New(4)
	if err := m.RestoreRoot(); err != ErrNoRootSnapshot {
		t.Fatalf("expected ErrNoRootSnapshot, got %v", err)
	}
	if _, err := m.TakeIncrementalSlot(0); err != ErrNoRootSnapshot {
		t.Fatalf("expected ErrNoRootSnapshot, got %v", err)
	}
	if _, err := m.RestoreIncrementalSlot(0); err != ErrNoIncrementalSnapshot {
		t.Fatalf("expected ErrNoIncrementalSnapshot, got %v", err)
	}
}

func TestRootSnapshotRestore(t *testing.T) {
	m := New(8)
	fill(t, m, 0, 0x11, 100)
	m.TakeRoot()
	fill(t, m, 0, 0x22, 100)
	fill(t, m, 3*PageSize, 0x33, 100)
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, m, 0); got != 0x11 {
		t.Fatalf("page 0 not restored: %#x", got)
	}
	if got := readByte(t, m, 3*PageSize); got != 0 {
		t.Fatalf("page 3 should be zero after restore: %#x", got)
	}
	if m.DirtyCount() != 0 {
		t.Fatalf("dirty set should be empty after restore, got %d", m.DirtyCount())
	}
}

func TestRestoreOnlyTouchesDirtyPages(t *testing.T) {
	m := New(1024)
	fill(t, m, 0, 0x11, PageSize)
	m.TakeRoot()
	fill(t, m, 500*PageSize, 0x22, 10)
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().PagesReset; got != 1 {
		t.Fatalf("expected exactly 1 page reset, got %d", got)
	}
}

func TestIncrementalSnapshotBasic(t *testing.T) {
	m := New(8)
	fill(t, m, 0, 0x01, 10) // root state
	m.TakeRoot()

	fill(t, m, 0, 0x02, 10) // prefix execution
	fill(t, m, PageSize, 0x03, 10)
	if _, err := m.TakeIncrementalSlot(0); err != nil {
		t.Fatal(err)
	}

	fill(t, m, 0, 0x04, 10) // fuzz case dirties page 0
	fill(t, m, 2*PageSize, 0x05, 10)
	if _, err := m.RestoreIncrementalSlot(0); err != nil {
		t.Fatal(err)
	}

	if got := readByte(t, m, 0); got != 0x02 {
		t.Fatalf("page 0 should hold incremental content 0x02, got %#x", got)
	}
	if got := readByte(t, m, PageSize); got != 0x03 {
		t.Fatalf("page 1 should hold incremental content 0x03, got %#x", got)
	}
	if got := readByte(t, m, 2*PageSize); got != 0 {
		t.Fatalf("page 2 should be restored to root zero, got %#x", got)
	}
}

func TestRestoreRootDiscardsIncremental(t *testing.T) {
	m := New(8)
	fill(t, m, 0, 0x01, 10)
	m.TakeRoot()
	fill(t, m, 0, 0x02, 10)
	if _, err := m.TakeIncrementalSlot(0); err != nil {
		t.Fatal(err)
	}
	fill(t, m, PageSize, 0x09, 10)
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	if m.ActiveSlot() != -1 {
		t.Fatal("root restore should leave the incremental snapshot's derivation")
	}
	if got := readByte(t, m, 0); got != 0x01 {
		t.Fatalf("page 0 should hold root content 0x01, got %#x", got)
	}
	if got := readByte(t, m, PageSize); got != 0 {
		t.Fatalf("page 1 should be zero, got %#x", got)
	}
}

func TestRecreateIncrementalResetsStalePages(t *testing.T) {
	m := New(8)
	m.TakeRoot()
	// First incremental snapshot overlays page 0.
	fill(t, m, 0, 0x11, 10)
	if _, err := m.TakeIncrementalSlot(0); err != nil {
		t.Fatal(err)
	}
	// Return to root, then create a second snapshot overlaying page 1 only.
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	fill(t, m, PageSize, 0x22, 10)
	if _, err := m.TakeIncrementalSlot(0); err != nil {
		t.Fatal(err)
	}
	// Dirty page 0 in the fuzz case; restore must bring back ROOT content
	// for page 0 (0x00), not the stale 0x11 from the first snapshot.
	fill(t, m, 0, 0x33, 10)
	if _, err := m.RestoreIncrementalSlot(0); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, m, 0); got != 0x00 {
		t.Fatalf("stale overlay page leaked: got %#x, want 0x00", got)
	}
	if got := readByte(t, m, PageSize); got != 0x22 {
		t.Fatalf("page 1 lost incremental content: %#x", got)
	}
}

func TestReMirrorClearsOverlay(t *testing.T) {
	m := New(8)
	m.ReMirrorInterval = 5
	m.TakeRoot()
	for i := 0; i < 12; i++ {
		// One id retaken from root-derived state, as the agent's
		// round-scoped snapshot is: that is what counts towards the interval.
		if err := m.RestoreRoot(); err != nil {
			t.Fatal(err)
		}
		fill(t, m, int64(i%8)*PageSize, byte(i+1), 10)
		if _, err := m.TakeIncrementalSlot(0); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().ReMirrors != 2 {
		t.Fatalf("expected 2 re-mirrors, got %d", m.Stats().ReMirrors)
	}
	if m.SlotPages(0) > 5 {
		t.Fatalf("overlay should be bounded after re-mirror, got %d", m.SlotPages(0))
	}
}

func TestIncrementalCreateCostProportionalToDirty(t *testing.T) {
	m := New(4096)
	m.TakeRoot()
	fill(t, m, 0, 0x11, 7*PageSize)
	before := m.Stats().PagesCopied
	if _, err := m.TakeIncrementalSlot(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().PagesCopied - before; got != 7 {
		t.Fatalf("expected 7 pages copied, got %d", got)
	}
}

// TestSnapshotRestoreIdentity is the core property: for any sequence of
// writes after a snapshot, restoring yields exactly the snapshotted memory
// image.
func TestSnapshotRestoreIdentity(t *testing.T) {
	const npages = 32
	f := func(seed int64, useIncremental bool) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(npages)
		// Random initial state.
		for i := 0; i < 10; i++ {
			off := int64(rng.Intn(npages * PageSize))
			n := rng.Intn(256) + 1
			if off+int64(n) > m.Size() {
				n = int(m.Size() - off)
			}
			buf := make([]byte, n)
			rng.Read(buf)
			m.WriteAt(buf, off)
		}
		m.TakeRoot()
		if useIncremental {
			for i := 0; i < 5; i++ {
				off := int64(rng.Intn(npages * PageSize / 2))
				buf := make([]byte, 64)
				rng.Read(buf)
				m.WriteAt(buf, off)
			}
			if _, err := m.TakeIncrementalSlot(0); err != nil {
				return false
			}
		}
		// Capture reference image.
		ref := make([]byte, m.Size())
		m.ReadAt(ref, 0)
		// Random mutations.
		for i := 0; i < 20; i++ {
			off := int64(rng.Intn(npages * PageSize))
			n := rng.Intn(512) + 1
			if off+int64(n) > m.Size() {
				n = int(m.Size() - off)
			}
			buf := make([]byte, n)
			rng.Read(buf)
			m.WriteAt(buf, off)
		}
		// Restore and compare.
		var err error
		if useIncremental {
			_, err = m.RestoreIncrementalSlot(0)
		} else {
			err = m.RestoreRoot()
		}
		if err != nil {
			return false
		}
		got := make([]byte, m.Size())
		m.ReadAt(got, 0)
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedIncrementalCycles exercises many create/restore/drop cycles,
// checking that root content is never corrupted.
func TestRepeatedIncrementalCycles(t *testing.T) {
	m := New(64)
	rng := rand.New(rand.NewSource(42))
	rootImg := make([]byte, m.Size())
	for i := 0; i < 30; i++ {
		buf := make([]byte, 128)
		rng.Read(buf)
		m.WriteAt(buf, int64(rng.Intn(60*PageSize)))
	}
	m.TakeRoot()
	m.ReadAt(rootImg, 0)

	for cycle := 0; cycle < 50; cycle++ {
		// Prefix.
		for i := 0; i < 5; i++ {
			buf := make([]byte, 64)
			rng.Read(buf)
			m.WriteAt(buf, int64(rng.Intn(60*PageSize)))
		}
		if _, err := m.TakeIncrementalSlot(0); err != nil {
			t.Fatal(err)
		}
		incImg := make([]byte, m.Size())
		m.ReadAt(incImg, 0)
		// Several fuzz cases against this snapshot.
		for fc := 0; fc < 4; fc++ {
			buf := make([]byte, 256)
			rng.Read(buf)
			m.WriteAt(buf, int64(rng.Intn(60*PageSize)))
			if _, err := m.RestoreIncrementalSlot(0); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, m.Size())
			m.ReadAt(got, 0)
			if !bytes.Equal(got, incImg) {
				t.Fatalf("cycle %d case %d: incremental restore mismatch", cycle, fc)
			}
		}
		if err := m.RestoreRoot(); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, m.Size())
		m.ReadAt(got, 0)
		if !bytes.Equal(got, rootImg) {
			t.Fatalf("cycle %d: root restore mismatch", cycle)
		}
	}
}

func BenchmarkWriteAt(b *testing.B) {
	m := New(1024)
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		m.WriteAt(buf, int64(i%1000)*PageSize)
	}
}

func TestDirtyPagesReturnsCopy(t *testing.T) {
	m := New(8)
	m.TakeRoot()
	fill(t, m, 0, 0x11, 10)
	fill(t, m, 2*PageSize, 0x22, 10)
	dp := m.DirtyPages()
	if len(dp) != 2 {
		t.Fatalf("expected 2 dirty pages, got %d", len(dp))
	}
	// Mutating the returned slice must not corrupt restore tracking.
	dp[0], dp[1] = 7, 7
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, m, 0); got != 0 {
		t.Fatalf("page 0 not restored after DirtyPages mutation: %#x", got)
	}
	if got := readByte(t, m, 2*PageSize); got != 0 {
		t.Fatalf("page 2 not restored after DirtyPages mutation: %#x", got)
	}
}

func TestSlotPoolBasic(t *testing.T) {
	m := New(8)
	fill(t, m, 0, 0x01, 10)
	m.TakeRoot()

	// Slot 1 captures state A (page 0 = 0x02).
	fill(t, m, 0, 0x02, 10)
	if _, err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	// Back to root, then slot 2 captures state B (page 1 = 0x03).
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	fill(t, m, PageSize, 0x03, 10)
	if _, err := m.TakeIncrementalSlot(2); err != nil {
		t.Fatal(err)
	}
	if !m.HasSlot(1) || !m.HasSlot(2) {
		t.Fatal("both slots should survive")
	}

	// Restore slot 1: page 0 = 0x02, page 1 back to root zero.
	if _, err := m.RestoreIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, m, 0); got != 0x02 {
		t.Fatalf("slot 1 page 0: got %#x want 0x02", got)
	}
	if got := readByte(t, m, PageSize); got != 0 {
		t.Fatalf("slot 1 page 1: got %#x want 0", got)
	}

	// Dirty something, then switch straight to slot 2.
	fill(t, m, 3*PageSize, 0x99, 10)
	if _, err := m.RestoreIncrementalSlot(2); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, m, 0); got != 0x01 {
		t.Fatalf("slot 2 page 0: got %#x want root 0x01", got)
	}
	if got := readByte(t, m, PageSize); got != 0x03 {
		t.Fatalf("slot 2 page 1: got %#x want 0x03", got)
	}
	if got := readByte(t, m, 3*PageSize); got != 0 {
		t.Fatalf("slot 2 page 3: got %#x want 0", got)
	}
}

func TestSlotSurvivesRootRestore(t *testing.T) {
	m := New(8)
	m.TakeRoot()
	fill(t, m, 0, 0x42, 10)
	if _, err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	// Root runs in between do not discard pool slots.
	for i := 0; i < 3; i++ {
		if err := m.RestoreRoot(); err != nil {
			t.Fatal(err)
		}
		fill(t, m, int64(i+1)*PageSize, byte(i+1), 10)
	}
	if _, err := m.RestoreIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, m, 0); got != 0x42 {
		t.Fatalf("slot content lost across root restores: %#x", got)
	}
	for i := 1; i <= 3; i++ {
		if got := readByte(t, m, int64(i)*PageSize); got != 0 {
			t.Fatalf("page %d should be back at root zero, got %#x", i, got)
		}
	}
}

func TestSlotChainedCreation(t *testing.T) {
	m := New(8)
	m.TakeRoot()
	// Slot 1: page 0 = 0x11.
	fill(t, m, 0, 0x11, 10)
	if _, err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	// Resume from slot 1, extend with page 1 = 0x22, capture as slot 2.
	fill(t, m, PageSize, 0x22, 10)
	if _, err := m.TakeIncrementalSlot(2); err != nil {
		t.Fatal(err)
	}
	// Detour to root, dirty everything relevant, then restore slot 2: it
	// must reproduce the chained state (both pages), not just its own tail.
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	fill(t, m, 0, 0x77, 10)
	fill(t, m, PageSize, 0x77, 10)
	if _, err := m.RestoreIncrementalSlot(2); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, m, 0); got != 0x11 {
		t.Fatalf("chained slot lost inherited page: got %#x want 0x11", got)
	}
	if got := readByte(t, m, PageSize); got != 0x22 {
		t.Fatalf("chained slot lost own page: got %#x want 0x22", got)
	}
	// Same on the cheap path: dirty the inherited page while slot 2 is the
	// derivation, and the same-slot restore must bring back 0x11, not root.
	fill(t, m, 0, 0x99, 10)
	if _, err := m.RestoreIncrementalSlot(2); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, m, 0); got != 0x11 {
		t.Fatalf("same-slot restore dropped inherited page: got %#x want 0x11", got)
	}
	// Slot 1 must be untouched by the chained creation.
	if _, err := m.RestoreIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, m, 0); got != 0x11 {
		t.Fatalf("slot 1 page 0: got %#x want 0x11", got)
	}
	if got := readByte(t, m, PageSize); got != 0 {
		t.Fatalf("slot 1 page 1: got %#x want 0", got)
	}
}

func TestDropSlotActiveFoldsIntoDirty(t *testing.T) {
	m := New(8)
	m.TakeRoot()
	fill(t, m, 0, 0x11, 10)
	if _, err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	m.DropSlot(1)
	if m.HasSlot(1) {
		t.Fatal("slot should be gone after drop")
	}
	if m.SlotBytes(1) != 0 {
		t.Fatal("dropped slot should hold no bytes")
	}
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, m, 0); got != 0 {
		t.Fatalf("overlay page leaked past drop+root restore: %#x", got)
	}
}

func TestSlotRestoreCostProportionalToDeltas(t *testing.T) {
	m := New(4096)
	m.TakeRoot()
	fill(t, m, 0, 0x11, 3*PageSize)
	if _, err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	fill(t, m, 10*PageSize, 0x22, 2*PageSize)
	if _, err := m.TakeIncrementalSlot(2); err != nil {
		t.Fatal(err)
	}
	// Switching from slot 2 to slot 1: 2 pages of slot 2's overlay plus 3
	// of slot 1's, no dirty pages.
	n, err := m.RestoreIncrementalSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("expected 5 pages reset on slot switch, got %d", n)
	}
	// Restoring the already-active slot with k dirty pages resets k.
	fill(t, m, 100*PageSize, 0x33, 1)
	n, err = m.RestoreIncrementalSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("expected 1 page reset on same-slot restore, got %d", n)
	}
}

// TestCloneSharedRootSlotIsolation is the CloneSharedRoot x incremental-slot
// interplay: clones taking, restoring and dropping slots must never leak
// pages into the shared root backing the parent (and its siblings) read
// through copy-on-write.
func TestCloneSharedRootSlotIsolation(t *testing.T) {
	parent := New(8)
	fill(t, parent, 0, 0x01, 10)
	fill(t, parent, PageSize, 0x02, 10)
	parent.TakeRoot()
	parentImg := make([]byte, parent.Size())
	parent.ReadAt(parentImg, 0)

	clone, err := parent.CloneSharedRoot()
	if err != nil {
		t.Fatal(err)
	}
	// The clone exercises slots over both materialized and zero pages.
	fill(t, clone, 0, 0xAA, 10)
	fill(t, clone, 3*PageSize, 0xBB, 10)
	if _, err := clone.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	if err := clone.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	fill(t, clone, PageSize, 0xCC, 10)
	if _, err := clone.TakeIncrementalSlot(2); err != nil {
		t.Fatal(err)
	}
	if _, err := clone.RestoreIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, clone, 0); got != 0xAA {
		t.Fatalf("clone slot 1 page 0: got %#x want 0xAA", got)
	}
	if got := readByte(t, clone, PageSize); got != 0x02 {
		t.Fatalf("clone slot 1 page 1: got %#x want shared root 0x02", got)
	}
	clone.DropSlot(1)
	if err := clone.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	cloneImg := make([]byte, clone.Size())
	clone.ReadAt(cloneImg, 0)
	if !bytes.Equal(cloneImg, parentImg) {
		t.Fatal("clone at root does not match the shared root image")
	}

	// The parent must have seen none of it.
	got := make([]byte, parent.Size())
	parent.ReadAt(got, 0)
	if !bytes.Equal(got, parentImg) {
		t.Fatal("clone slot activity leaked into the parent's memory")
	}
	if err := parent.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	parent.ReadAt(got, 0)
	if !bytes.Equal(got, parentImg) {
		t.Fatal("shared root backing was corrupted by clone slot activity")
	}
}

// TestSlotRestoreIdentity is the slot-pool analogue of the core snapshot
// property: restoring any held slot yields exactly the captured image, for
// random interleavings of writes, slot creations and restores.
func TestSlotRestoreIdentity(t *testing.T) {
	const npages = 32
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(npages)
		m.TakeRoot()
		images := make(map[int][]byte)
		slotIDs := []int{}
		for step := 0; step < 40; step++ {
			switch rng.Intn(3) {
			case 0: // write
				buf := make([]byte, 128)
				rng.Read(buf)
				m.WriteAt(buf, int64(rng.Intn(npages*PageSize-128)))
			case 1: // take a new slot
				id := len(slotIDs) + 1
				if _, err := m.TakeIncrementalSlot(id); err != nil {
					return false
				}
				img := make([]byte, m.Size())
				m.ReadAt(img, 0)
				images[id] = img
				slotIDs = append(slotIDs, id)
			case 2: // restore a random held slot (or root)
				if len(slotIDs) == 0 || rng.Intn(4) == 0 {
					if err := m.RestoreRoot(); err != nil {
						return false
					}
					continue
				}
				id := slotIDs[rng.Intn(len(slotIDs))]
				if _, err := m.RestoreIncrementalSlot(id); err != nil {
					return false
				}
				got := make([]byte, m.Size())
				m.ReadAt(got, 0)
				if !bytes.Equal(got, images[id]) {
					return false
				}
			}
		}
		// Every held slot must still restore to its captured image.
		for _, id := range slotIDs {
			if _, err := m.RestoreIncrementalSlot(id); err != nil {
				return false
			}
			got := make([]byte, m.Size())
			m.ReadAt(got, 0)
			if !bytes.Equal(got, images[id]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSlotRestoreCoWInvariants pins the zero-copy restore aliasing: a
// restore installs frozen overlay/root pages copy-on-write, so (1) writing
// through a restored page must never corrupt the slot overlay or the root
// snapshot it aliases (restore → write → re-restore is byte-identical), and
// (2) the shared zero page stays all-zero even when written through.
func TestSlotRestoreCoWInvariants(t *testing.T) {
	m := New(8)
	fill(t, m, 0, 0x01, PageSize)
	m.TakeRoot()
	fill(t, m, 0, 0x11, PageSize)
	fill(t, m, PageSize, 0x22, PageSize)
	if _, err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	slotImg := make([]byte, m.Size())
	m.ReadAt(slotImg, 0)

	for cycle := 0; cycle < 3; cycle++ {
		if _, err := m.RestoreIncrementalSlot(1); err != nil {
			t.Fatal(err)
		}
		// Overwrite both overlay pages THROUGH the restored aliases plus a
		// root-content page.
		fill(t, m, 0, 0x99, PageSize)
		fill(t, m, PageSize, 0x99, PageSize)
		fill(t, m, 2*PageSize, 0x99, PageSize)
		if _, err := m.RestoreIncrementalSlot(1); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, m.Size())
		m.ReadAt(got, 0)
		if !bytes.Equal(got, slotImg) {
			t.Fatalf("cycle %d: restore → write → re-restore not identical", cycle)
		}
	}
	// The root snapshot must be intact too (aliased root pages were
	// written through while the slot was active).
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, m, 0); got != 0x01 {
		t.Fatalf("root page corrupted through CoW alias: %#x", got)
	}
	if m.Stats().PagesCoWBroken == 0 {
		t.Fatal("writes through restored pages should have broken CoW aliases")
	}
}

// TestDiscardChargesLikeAWrite pins what Discard stands in for. Two memories
// run the same slot through restore→write cycles on pages 0 and 1; then each
// cycle one writes page 1 before the restore and the other discards a range on
// it instead. Both restores must reset the same pages to the same content, and
// the discarded page, which nothing wrote, must cost no CoW break.
func TestDiscardChargesLikeAWrite(t *testing.T) {
	written, discarded := New(8), New(8)
	for _, m := range []*Memory{written, discarded} {
		m.TakeRoot()
		fill(t, m, 0, 0x11, 10)
		fill(t, m, PageSize, 0x11, 10)
		if _, err := m.TakeIncrementalSlot(1); err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 4; cycle++ {
			fill(t, m, 0, 0x99, 10)
			fill(t, m, PageSize, 0x99, 10)
			if _, err := m.RestoreIncrementalSlot(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	contents := func(m *Memory) []byte {
		buf := make([]byte, m.Size())
		if _, err := m.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	discarded.Discard(PageSize-2, 4) // straddles pages 0 and 1, writes neither
	if discarded.DirtyCount() != 2 || !bytes.Equal(contents(discarded), contents(written)) {
		t.Fatalf("Discard marked %d pages dirty or wrote memory", discarded.DirtyCount())
	}
	fill(t, written, 0, 0x99, 10)
	fill(t, written, PageSize, 0x99, 10)
	for cycle := 0; cycle < 12; cycle++ {
		broken := discarded.Stats().PagesCoWBroken
		a, err := written.RestoreIncrementalSlot(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := discarded.RestoreIncrementalSlot(1)
		if err != nil {
			t.Fatal(err)
		}
		if a != b || !bytes.Equal(contents(written), contents(discarded)) {
			t.Fatalf("cycle %d: the write reset %d pages, the discard %d, or the restored content differs", cycle, a, b)
		}
		if now := discarded.Stats().PagesCoWBroken; now != broken {
			t.Fatalf("cycle %d: a discarded page broke %d CoW aliases, want 0", cycle, now-broken)
		}
		fill(t, written, PageSize, byte(cycle), 10)
		discarded.Discard(PageSize+5, 10)
	}
}

// TestSteadyStateRestoreAllocs asserts the whole restore→write cycle is
// allocation-free at steady state: a restore aliases every dirty page and
// displaces its private buffer into the free list, and the first write to
// each page breaks the alias with a buffer popped back out — exactly one CoW
// break per rewritten page. One allocation here would fire tens of thousands
// of times per campaign.
func TestSteadyStateRestoreAllocs(t *testing.T) {
	const hot = 8
	m := New(64)
	m.TakeRoot()
	buf := bytes.Repeat([]byte{0x5A}, 10)
	writeHot := func() {
		for p := 0; p < hot; p++ {
			if _, err := m.WriteAt(buf, int64(p)*PageSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeHot()
	if _, err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		if _, err := m.RestoreIncrementalSlot(1); err != nil {
			t.Fatal(err)
		}
		writeHot()
	}
	for i := 0; i < 32; i++ {
		cycle() // warm up: populate the free list
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state restore→write cycle allocates %.1f times per run, want 0", allocs)
	}
	for i := 0; i < 10; i++ {
		before := m.Stats().PagesCoWBroken
		cycle()
		if got := m.Stats().PagesCoWBroken - before; got != hot {
			t.Fatalf("restore→rewrite cycle broke %d CoW aliases, want %d", got, hot)
		}
	}
}

// TestFreeListBounded pins the free-list cap: a restore displacing many
// private buffers at once may retire at most maxFreePages of them.
func TestFreeListBounded(t *testing.T) {
	const npages = 4 * maxFreePages
	m := New(npages)
	m.TakeRoot()
	// Dirty every page so the restore displaces npages private buffers.
	for p := 0; p < npages; p++ {
		m.TouchPage(uint32(p))[0] = 1
	}
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	if got := len(m.freePages); got > maxFreePages {
		t.Fatalf("free list grew to %d buffers, cap %d", got, maxFreePages)
	}
}

func TestZeroPageNeverMutated(t *testing.T) {
	parent := New(4)
	fill(t, parent, 0, 0x42, PageSize)
	parent.TakeRoot()
	clone, err := parent.CloneSharedRoot()
	if err != nil {
		t.Fatal(err)
	}
	// The clone's slot captures a zeroed page 0 (root backing holds 0x42),
	// so restoring resets page 0 to explicit zero — the zeroPage alias.
	zero := make([]byte, PageSize)
	clone.WriteAt(zero, 0)
	if _, err := clone.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	fill(t, clone, 0, 0x77, PageSize)
	if _, err := clone.RestoreIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, clone, 0); got != 0 {
		t.Fatalf("restored zero page reads %#x", got)
	}
	// Writing through the restored zero page must copy, not mutate the
	// shared zeroPage.
	fill(t, clone, 0, 0x55, 16)
	for i, b := range zeroPage {
		if b != 0 {
			t.Fatalf("shared zeroPage mutated at %d: %#x", i, b)
		}
	}
	if got := readByte(t, clone, 0); got != 0x55 {
		t.Fatalf("write through zero page lost: %#x", got)
	}
}

// BenchmarkSlotRestoreMem isolates the memory half of the zero-copy slot
// switch: flipping between two slots with large overlays and a tiny dirty
// set installs O(overlay) aliases instead of copying O(overlay) pages; the
// baseline sub-benchmark replicates the pre-change per-page memcpy.
func BenchmarkSlotRestoreMem(b *testing.B) {
	const overlayPages = 2048
	build := func() *Memory {
		m := New(4 * overlayPages)
		m.TakeRoot()
		for p := 0; p < overlayPages; p++ {
			m.TouchPage(uint32(p))[0] = 1
		}
		if _, err := m.TakeIncrementalSlot(1); err != nil {
			b.Fatal(err)
		}
		if err := m.RestoreRoot(); err != nil {
			b.Fatal(err)
		}
		for p := 0; p < overlayPages; p++ {
			m.TouchPage(uint32(overlayPages + p))[0] = 2
		}
		if _, err := m.TakeIncrementalSlot(2); err != nil {
			b.Fatal(err)
		}
		return m
	}
	b.Run("zero-copy", func(b *testing.B) {
		m := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.RestoreIncrementalSlot(1 + i%2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("copy-baseline", func(b *testing.B) {
		m := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := 1 + i%2
			if _, err := m.RestoreIncrementalSlot(id); err != nil {
				b.Fatal(err)
			}
			// Replicate the pre-change cost: materialize every restored
			// alias with the per-page copy resetPage used to do.
			s := m.slots[id]
			for pn := range s.pages {
				m.page(pn)
			}
			for pn := range m.slots[3-id].pages {
				m.page(pn)
			}
		}
	})
}
