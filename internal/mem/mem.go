// Package mem implements the guest physical memory substrate used by the
// Nyx-Net reproduction: 4 KiB pages with hardware-style dirty tracking and
// the root + incremental snapshot mechanism described in §2.3 and §4.2 of
// the paper.
//
// Dirty tracking follows the paper closely: a bitmap with one byte per page
// (mirroring KVM's layout) plus Nyx's addition, a stack of dirty page
// numbers that lets the restore path avoid walking the whole bitmap. Both
// structures are maintained so that the ablation benchmarks can compare the
// stack-based restore against an Agamotto-style full bitmap walk.
//
// Incremental snapshots are held in overlay slots named by plain integer
// ids: each slot stores the delta of the captured state against the root
// snapshot, and slots survive root restores and restores of other slots, so
// a snapshot pool (package snappool) can keep many prefix states alive at
// once under a memory budget. The paper's one-secondary-snapshot model is
// the same mechanism with one id, retaken from root-derived state each
// round: the slot's buffers are reused across takes and its overlay is
// re-mirrored (cleared) every ReMirrorInterval creations.
//
// A restore has one path: it points every page it resets at the frozen
// snapshot content as a copy-on-write alias and copies nothing; the first
// write to a restored page copies it out (Stats.PagesCoWBroken). What a
// restore reports, and the VM layer charges, is the number of pages reset,
// which the aliasing never changes.
package mem

import (
	"errors"
	"fmt"
)

// PageSize is the size of a guest physical page in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Restore strategies select how the set of pages to reset is discovered.
type RestoreStrategy int

const (
	// RestoreStack walks Nyx's stack of dirty page numbers (the paper's
	// approach; cost proportional to the number of dirty pages).
	RestoreStack RestoreStrategy = iota
	// RestoreBitmapWalk scans the whole dirty bitmap as Agamotto and
	// stock KVM do (cost proportional to total VM size).
	RestoreBitmapWalk
)

// ErrNoRootSnapshot is returned when an operation requires a root snapshot
// that has not been taken yet.
var ErrNoRootSnapshot = errors.New("mem: no root snapshot taken")

// ErrNoIncrementalSnapshot is returned when an operation names a snapshot
// slot that does not exist.
var ErrNoIncrementalSnapshot = errors.New("mem: no such incremental snapshot slot")

// snapSlot is one named incremental snapshot: the overlay of pages whose
// captured content differs from the root snapshot.
type snapSlot struct {
	pages map[uint32][]byte
	// sinceMirror counts creations into this slot since its overlay was
	// last cleared (the re-mirror bookkeeping, §4.2).
	sinceMirror int
}

// zeroPage is the shared all-zero page restored pages alias when their
// snapshot content is zero but a CoW backing would otherwise shine through.
// It is read-only: the cow bit forces a private copy before any write.
var zeroPage = make([]byte, PageSize)

// maxFreePages bounds the recycled-buffer stack (256 KiB of 4 KiB pages):
// enough to cover any realistic per-round hot set, small enough that a
// pathological burst of displaced pages cannot pin the heap. The stack is
// shared by every private-buffer producer and consumer on the restore
// cycle — CoW breaks draw from it and displaced buffers retire into it — so
// the steady state allocates nothing.
const maxFreePages = 64

// Memory models the physical memory of a guest VM.
//
// Pages are allocated lazily: a nil entry reads as all zeroes. Writes mark
// pages dirty in both the bitmap and the dirty stack, mimicking the
// hardware page-modification logging that Nyx builds on.
type Memory struct {
	npages int
	pages  [][]byte

	// cow marks pages whose entry in pages aliases frozen snapshot storage
	// (a slot overlay page, a root page, or zeroPage) instead of holding a
	// private buffer. Restores install such aliases in O(1) per page — the
	// zero-copy restore path — and the first write to a cow page copies it
	// out before mutating (hardware CoW, restated in Go).
	cow []bool

	// freePages recycles private page buffers displaced when a restore
	// installs an alias over them, so the steady-state restore→write
	// cycle (reset a hot page, CoW-break it next round) reuses buffers
	// instead of allocating 4 KiB per break. Bounded; see maxFreePages.
	freePages [][]byte

	// Dirty tracking since the last snapshot point (root restore,
	// incremental create, or incremental restore).
	dirtyBitmap []byte
	dirtyStack  []uint32

	// Root snapshot: a full copy of the memory at TakeRoot time.
	root       [][]byte
	hasRoot    bool
	rootEpochs uint64 // number of root restores, for stats

	// backing, when non-nil, provides copy-on-write page content for
	// pages this instance has not written yet. It aliases another
	// Memory's root snapshot (see CloneSharedRoot, §5.3 Scalability).
	backing    [][]byte
	sharedRoot bool

	// Incremental snapshot state (§4.2). Each slot is conceptually a
	// copy-on-write remap of the root snapshot: slot.pages overlays root.
	// active names the slot the current memory state derives from (-1 =
	// root), which is what dirty tracking is relative to. A retaken id
	// accumulates pages in its overlay across creations and is re-mirrored
	// (cleared) every ReMirrorInterval creations to bound the
	// duplicate-copy worst case the paper describes.
	slots     map[int]*snapSlot
	active    int
	activeRef *snapSlot // cached slots[active] (nil when active < 0), so the restore hot path skips the map lookup

	// ReMirrorInterval is the number of incremental snapshot creations
	// between full overlay re-mirrors. The paper uses 2,000.
	ReMirrorInterval int

	// Strategy used by restore operations.
	Strategy RestoreStrategy

	stats Stats
}

// Stats aggregates counters about snapshot activity, exposed for the
// benchmark harness and scalability experiments.
type Stats struct {
	RootRestores        uint64
	IncrementalCreates  uint64
	IncrementalRestores uint64
	PagesReset          uint64
	PagesCopied         uint64
	ReMirrors           uint64
	// PagesCoWBroken counts writes that had to copy a page out of the
	// zero-copy restore aliasing — the true per-restore-cycle copy cost,
	// which the restore path itself no longer pays.
	PagesCoWBroken uint64
}

// New returns a Memory of npages pages (npages*PageSize bytes).
func New(npages int) *Memory {
	if npages <= 0 {
		panic(fmt.Sprintf("mem: invalid page count %d", npages))
	}
	return &Memory{
		npages:           npages,
		pages:            make([][]byte, npages),
		cow:              make([]bool, npages),
		dirtyBitmap:      make([]byte, npages),
		slots:            make(map[int]*snapSlot),
		active:           -1,
		ReMirrorInterval: 2000,
		Strategy:         RestoreStack,
	}
}

// NumPages returns the number of physical pages.
func (m *Memory) NumPages() int { return m.npages }

// Size returns the memory size in bytes.
func (m *Memory) Size() int64 { return int64(m.npages) * PageSize }

// Stats returns a copy of the accumulated snapshot statistics.
func (m *Memory) Stats() Stats { return m.stats }

// DirtyCount returns the number of pages dirtied since the last snapshot
// point.
func (m *Memory) DirtyCount() int { return len(m.dirtyStack) }

// DirtyPages returns the page numbers dirtied since the last snapshot point.
// The result is a copy: callers may keep or mutate it without aliasing the
// tracking state the restore paths depend on.
func (m *Memory) DirtyPages() []uint32 { return append([]uint32(nil), m.dirtyStack...) }

// page returns a writable backing slice for page pn, allocating it if
// needed. When a copy-on-write backing is present, the fresh page is
// populated from it before the caller writes; a page aliasing frozen
// snapshot storage (cow) is copied out first so the snapshot stays intact.
func (m *Memory) page(pn uint32) []byte {
	p := m.pages[pn]
	if p == nil {
		p = make([]byte, PageSize)
		if m.backing != nil && m.backing[pn] != nil {
			copy(p, m.backing[pn])
		}
		m.pages[pn] = p
		return p
	}
	if m.cow[pn] {
		cp := m.allocPage()
		copy(cp, p)
		m.pages[pn] = cp
		m.cow[pn] = false
		m.stats.PagesCoWBroken++
		return cp
	}
	return p
}

// allocPage returns a page buffer for a caller about to overwrite it fully
// (content is unspecified): recycled from the free list when possible.
func (m *Memory) allocPage() []byte {
	if n := len(m.freePages); n > 0 {
		p := m.freePages[n-1]
		m.freePages = m.freePages[:n-1]
		return p
	}
	return make([]byte, PageSize)
}

// retirePage offers a displaced private buffer to the free list.
//
//nyx:hotpath
func (m *Memory) retirePage(p []byte) {
	if len(m.freePages) < maxFreePages {
		m.freePages = append(m.freePages, p)
	}
}

// readPage returns the content of page pn for reading, which may come from
// the CoW backing; nil means all-zero.
func (m *Memory) readPage(pn uint32) []byte {
	if p := m.pages[pn]; p != nil {
		return p
	}
	if m.backing != nil {
		return m.backing[pn]
	}
	return nil
}

// markDirty records a write to page pn.
//
//nyx:hotpath
func (m *Memory) markDirty(pn uint32) {
	if m.dirtyBitmap[pn] == 0 {
		m.dirtyBitmap[pn] = 1
		m.dirtyStack = append(m.dirtyStack, pn)
	}
}

// TouchPage marks page pn dirty and returns its writable backing slice.
// It is the fast path used by the guest kernel when it owns whole pages.
func (m *Memory) TouchPage(pn uint32) []byte {
	if int(pn) >= m.npages {
		panic(fmt.Sprintf("mem: page %d out of range (%d pages)", pn, m.npages))
	}
	m.markDirty(pn)
	return m.page(pn)
}

// ReadAt reads len(p) bytes at byte offset off. Reads beyond the end of
// memory return an error.
func (m *Memory) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > m.Size() {
		return 0, fmt.Errorf("mem: read [%d,%d) out of range", off, off+int64(len(p)))
	}
	n := 0
	for n < len(p) {
		pn := uint32(off >> PageShift)
		po := int(off & (PageSize - 1))
		chunk := PageSize - po
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		if src := m.readPage(pn); src != nil {
			copy(p[n:n+chunk], src[po:po+chunk])
		} else {
			for i := n; i < n+chunk; i++ {
				p[i] = 0
			}
		}
		n += chunk
		off += int64(chunk)
	}
	return n, nil
}

// WriteAt writes len(p) bytes at byte offset off, marking affected pages
// dirty.
func (m *Memory) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > m.Size() {
		return 0, fmt.Errorf("mem: write [%d,%d) out of range", off, off+int64(len(p)))
	}
	n := 0
	for n < len(p) {
		pn := uint32(off >> PageShift)
		po := int(off & (PageSize - 1))
		chunk := PageSize - po
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		m.markDirty(pn)
		copy(m.page(pn)[po:po+chunk], p[n:n+chunk])
		n += chunk
		off += int64(chunk)
	}
	return n, nil
}

// Discard marks the pages of [off, off+n) dirty without writing them: the
// pages a write the caller skipped would have dirtied, so that the restore
// which must follow resets them and counts them in PagesReset exactly as if
// the write had happened. The range must lie within memory, and n > 0.
//
//nyx:hotpath
func (m *Memory) Discard(off int64, n int) {
	last := uint32((off + int64(n) - 1) >> PageShift)
	for pn := uint32(off >> PageShift); pn <= last; pn++ {
		m.markDirty(pn)
	}
}

// clearDirty resets the dirty bitmap and stack. The bitmap is cleared via
// the stack so the cost stays proportional to the number of dirty pages.
func (m *Memory) clearDirty() {
	for _, pn := range m.dirtyStack {
		m.dirtyBitmap[pn] = 0
	}
	m.dirtyStack = m.dirtyStack[:0]
}

// TakeRoot captures the root snapshot: a full copy of the physical memory,
// as creating a root snapshot is allowed to be expensive (§4.2). Dirty
// tracking restarts from this point.
func (m *Memory) TakeRoot() {
	root := make([][]byte, m.npages)
	for i := range m.pages {
		if p := m.readPage(uint32(i)); p != nil {
			cp := make([]byte, PageSize)
			copy(cp, p)
			root[i] = cp
		}
	}
	m.sharedRoot = false
	m.root = root
	m.hasRoot = true
	m.slots = make(map[int]*snapSlot)
	m.active = -1
	m.activeRef = nil
	m.clearDirty()
}

// HasRoot reports whether a root snapshot has been taken.
func (m *Memory) HasRoot() bool { return m.hasRoot }

// rootPage returns the root snapshot content of page pn (nil = all zero).
func (m *Memory) rootPage(pn uint32) []byte { return m.root[pn] }

// resetPage restores page pn to the content of src (nil = zero page) by
// installing an alias to the frozen snapshot storage instead of copying it:
// O(1) per page regardless of page size. The cow bit makes the next write
// to the page copy it out first, so the snapshot content stays immutable.
//
//nyx:hotpath
func (m *Memory) resetPage(pn uint32, src []byte) {
	if old := m.pages[pn]; old != nil && !m.cow[pn] {
		// A private buffer is being displaced by the alias; recycle it
		// for the next CoW break instead of leaving it to the GC.
		m.retirePage(old)
	}
	if src == nil {
		if m.backing != nil && m.backing[pn] != nil {
			// The CoW backing would otherwise shine through a nil entry.
			m.pages[pn] = zeroPage
			m.cow[pn] = true
		} else {
			m.pages[pn] = nil
			m.cow[pn] = false
		}
		return
	}
	m.pages[pn] = src
	m.cow[pn] = true
}

// snapshotPageFor returns the content page pn must be restored to under the
// currently selected snapshot (active slot overlay first, then root).
//
//nyx:hotpath
func (m *Memory) snapshotPageFor(pn uint32) []byte {
	if s := m.activeRef; s != nil {
		if p, ok := s.pages[pn]; ok {
			return p
		}
	}
	return m.rootPage(pn)
}

// restoreDirty resets every dirty page to the active snapshot content using
// the configured strategy, then clears dirty tracking. Every reset installs a
// copy-on-write alias (resetPage); the first write to a restored page copies
// it out (page). The stack strategy resolves the active derivation's overlay
// once instead of looking the slot up per page.
//
//nyx:hotpath
func (m *Memory) restoreDirty() {
	switch m.Strategy {
	case RestoreStack:
		var overlay map[uint32][]byte
		if s := m.activeRef; s != nil {
			overlay = s.pages
		}
		for _, pn := range m.dirtyStack {
			src := overlay[pn]
			if src == nil {
				src = m.root[pn]
			}
			m.resetPage(pn, src)
			m.dirtyBitmap[pn] = 0
			m.stats.PagesReset++
		}
		m.dirtyStack = m.dirtyStack[:0]
	case RestoreBitmapWalk:
		for pn := 0; pn < m.npages; pn++ {
			if m.dirtyBitmap[pn] != 0 {
				m.resetPage(uint32(pn), m.snapshotPageFor(uint32(pn)))
				m.dirtyBitmap[pn] = 0
				m.stats.PagesReset++
			}
		}
		m.dirtyStack = m.dirtyStack[:0]
	default:
		panic("mem: unknown restore strategy")
	}
}

// RestoreRoot resets the VM memory to the root snapshot. Only pages dirtied
// since the last snapshot point are touched, plus — when the state derives
// from an incremental slot — the pages that slot had overlaid. The slots
// themselves stay restorable (the pool keeps snapshots across root runs);
// only the derivation returns to the root.
//
//nyx:hotpath
func (m *Memory) RestoreRoot() error {
	if !m.hasRoot {
		return ErrNoRootSnapshot
	}
	if m.active >= 0 {
		// Pages the active slot overlaid (and that were not re-dirtied,
		// which restoreDirty handles below) would otherwise keep slot
		// content after the derivation flips to the root.
		s := m.activeRef
		m.active = -1
		m.activeRef = nil
		for pn := range s.pages {
			if m.dirtyBitmap[pn] == 0 {
				m.resetPage(pn, m.rootPage(pn))
				m.stats.PagesReset++
			}
		}
	}
	m.restoreDirty()
	m.stats.RootRestores++
	m.rootEpochs++
	return nil
}

// slot returns (allocating if needed) the slot with the given id.
func (m *Memory) slot(id int) *snapSlot {
	s := m.slots[id]
	if s == nil {
		s = &snapSlot{pages: make(map[uint32][]byte)}
		m.slots[id] = s
	}
	return s
}

// unalias gives page pn a private buffer if its entry currently aliases
// buf, preserving the live content before buf is mutated in place.
func (m *Memory) unalias(pn uint32, buf []byte) {
	if p := m.pages[pn]; m.cow[pn] && len(p) > 0 && &p[0] == &buf[0] {
		cp := m.allocPage()
		copy(cp, p)
		m.pages[pn] = cp
		m.cow[pn] = false
	}
}

// copyInto overwrites buf with src, where nil src means the zero page.
func copyInto(buf, src []byte) {
	if src == nil {
		for i := range buf {
			buf[i] = 0
		}
		return
	}
	copy(buf, src)
}

// slotBuf returns (allocating if needed) slot s's overlay buffer for pn.
func (s *snapSlot) buf(pn uint32) []byte {
	b := s.pages[pn]
	if b == nil {
		b = make([]byte, PageSize)
		s.pages[pn] = b
	}
	return b
}

// TakeIncrementalSlot captures the current VM state into snapshot slot id:
// the slot records the state's full delta against the root snapshot, so it
// can be restored after any number of root restores or restores of other
// slots. Per §4.2 this is about as cheap as a reset: from root-derived state
// only the pages dirtied since the root snapshot are copied into the
// overlay. The current state may also derive from another slot (a chained
// creation: a snapshot taken while resumed from a cached prefix inherits
// that prefix's overlay). Returns the number of pages copied, which is the
// creation cost the VM layer charges.
//
// Retaking an id whose state is no longer the active derivation (the
// round-scoped single snapshot, retaken after a root restore) reuses its
// buffers and counts towards the re-mirror interval; taking a slot while it
// is itself the active derivation accumulates the new dirty pages into it
// (and skips re-mirror bookkeeping, which would discard overlay content the
// current state still derives from).
func (m *Memory) TakeIncrementalSlot(id int) (int, error) {
	if !m.hasRoot {
		return 0, ErrNoRootSnapshot
	}
	s := m.slot(id)
	copied := int(m.stats.PagesCopied)
	if m.active != id {
		var src map[uint32][]byte
		if m.activeRef != nil {
			src = m.activeRef.pages
		}
		s.sinceMirror++
		if s.sinceMirror >= m.ReMirrorInterval {
			s.pages = make(map[uint32][]byte)
			s.sinceMirror = 0
			m.stats.ReMirrors++
		} else {
			// Stale buffers from a previous life of this slot that the
			// new delta does not cover must read as root content again.
			for pn, buf := range s.pages {
				if m.dirtyBitmap[pn] != 0 {
					continue // dirty content wins below
				}
				if _, ok := src[pn]; ok {
					continue // source overlay content wins below
				}
				m.unalias(pn, buf) // defensive: never rewrite live memory
				copyInto(buf, m.rootPage(pn))
			}
		}
		// Fold in the overlay of the slot the state derives from: those
		// pages differ from root in the current state too, unless
		// re-dirtied (then the live content wins below).
		for pn, content := range src {
			if m.dirtyBitmap[pn] != 0 {
				continue
			}
			buf := s.buf(pn)
			m.unalias(pn, buf) // defensive: never rewrite live memory
			copy(buf, content)
			m.stats.PagesCopied++
		}
	}
	for _, pn := range m.dirtyStack {
		copyInto(s.buf(pn), m.pages[pn])
		m.dirtyBitmap[pn] = 0
		m.stats.PagesCopied++
	}
	m.dirtyStack = m.dirtyStack[:0]
	m.active = id
	m.activeRef = s
	m.stats.IncrementalCreates++
	return int(m.stats.PagesCopied) - copied, nil
}

// HasSlot reports whether snapshot slot id is restorable.
func (m *Memory) HasSlot(id int) bool {
	return m.slots[id] != nil
}

// ActiveSlot returns the slot id the current memory state derives from, or
// -1 when it derives from the root snapshot.
func (m *Memory) ActiveSlot() int { return m.active }

// RestoreIncrementalSlot resets the VM memory to snapshot slot id and makes
// it the active derivation. Restoring the slot the state already derives
// from only touches the dirty pages (the cheap path every suffix execution
// takes); switching slots additionally resets the pages either slot's
// overlay covers — still proportional to the deltas involved, never to the
// VM size. Returns the number of pages reset, which is the restore cost the
// VM layer charges.
//
//nyx:hotpath
func (m *Memory) RestoreIncrementalSlot(id int) (int, error) {
	// Re-restoring the derivation slot is the hot case (every suffix
	// execution); the cached active ref skips the slot-table lookup.
	s := m.activeRef
	if m.active != id || s == nil {
		s = m.slots[id]
	}
	if s == nil {
		return 0, ErrNoIncrementalSnapshot
	}
	before := m.stats.PagesReset
	if m.active != id {
		// Union of the pages that can differ between the current state
		// and the slot's state: dirty pages, the overlay of the slot the
		// state derives from, and the target slot's overlay. markDirty
		// dedups via the bitmap; restoreDirty then resets the union
		// against the target slot's lookup chain.
		if m.activeRef != nil {
			for pn := range m.activeRef.pages {
				m.markDirty(pn)
			}
		}
		for pn := range s.pages {
			m.markDirty(pn)
		}
		m.active = id
		m.activeRef = s
	}
	m.restoreDirty()
	m.stats.IncrementalRestores++
	return int(m.stats.PagesReset - before), nil
}

// DropSlot discards snapshot slot id and frees its overlay (the pool's
// eviction path — a host-side decision, so the VM layer charges nothing).
// If the current state derives from the slot, its overlay pages fold into
// the dirty set so the next restore resets them.
func (m *Memory) DropSlot(id int) {
	s := m.slots[id]
	if s == nil {
		return
	}
	if m.active == id {
		m.active = -1
		m.activeRef = nil
		for pn := range s.pages {
			m.markDirty(pn)
		}
	}
	delete(m.slots, id)
}

// SlotBytes returns the heap bytes slot id's overlay holds (the charge the
// pool's memory budget accounts per slot).
func (m *Memory) SlotBytes(id int) int64 {
	s := m.slots[id]
	if s == nil {
		return 0
	}
	return int64(len(s.pages)) * PageSize
}

// SlotPages returns the number of overlay pages slot id holds.
func (m *Memory) SlotPages(id int) int {
	s := m.slots[id]
	if s == nil {
		return 0
	}
	return len(s.pages)
}

// Slots returns the number of allocated snapshot slots.
func (m *Memory) Slots() int { return len(m.slots) }

// CloneSharedRoot creates a new Memory that shares this Memory's root
// snapshot copy-on-write instead of duplicating it. The clone starts at
// root state with empty dirty tracking. This is the mechanism behind §5.3:
// 80 parallel fuzzer instances only need about twice the memory of one,
// because the (large) root snapshot exists once.
//
// The parent's root snapshot must not be retaken while clones are alive.
func (m *Memory) CloneSharedRoot() (*Memory, error) {
	if !m.hasRoot {
		return nil, ErrNoRootSnapshot
	}
	c := New(m.npages)
	c.root = m.root // aliased, treated as read-only
	c.backing = m.root
	c.hasRoot = true
	c.sharedRoot = true
	c.ReMirrorInterval = m.ReMirrorInterval
	c.Strategy = m.Strategy
	return c, nil
}

// SharesRoot reports whether this Memory borrows its root snapshot from
// another instance.
func (m *Memory) SharesRoot() bool { return m.sharedRoot }

// OwnedBytes estimates the heap bytes this instance owns exclusively:
// materialized pages, the incremental overlay, and (unless shared) the root
// snapshot. Pages whose entry merely aliases frozen snapshot storage (cow)
// are not counted — that storage is accounted to the overlay or root that
// owns it. Used by the scalability experiment.
func (m *Memory) OwnedBytes() int64 {
	var n int64
	for pn, p := range m.pages {
		if p != nil && !m.cow[pn] {
			n += PageSize
		}
	}
	for _, s := range m.slots {
		n += int64(len(s.pages)) * PageSize
	}
	if m.hasRoot && !m.sharedRoot {
		for _, p := range m.root {
			if p != nil {
				n += PageSize
			}
		}
	}
	n += int64(len(m.freePages)) * PageSize // recycled private buffers
	n += int64(m.npages)                    // dirty bitmap
	n += int64(cap(m.dirtyStack)) * 4
	return n
}
