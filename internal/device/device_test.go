package device

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func sector(b byte) []byte { return bytes.Repeat([]byte{b}, SectorSize) }

func readSector(t *testing.T, d *BlockDevice, sn uint64) []byte {
	t.Helper()
	buf := make([]byte, SectorSize)
	if err := d.ReadSector(sn, buf); err != nil {
		t.Fatalf("ReadSector(%d): %v", sn, err)
	}
	return buf
}

func TestBlockReadWriteRoundTrip(t *testing.T) {
	d := NewBlockDevice("disk0", 128)
	if err := d.WriteSector(7, sector(0xAA)); err != nil {
		t.Fatal(err)
	}
	if got := readSector(t, d, 7); got[0] != 0xAA {
		t.Fatalf("got %#x want 0xAA", got[0])
	}
	if got := readSector(t, d, 8); got[0] != 0 {
		t.Fatalf("unwritten sector should read zero, got %#x", got[0])
	}
}

func TestBlockBounds(t *testing.T) {
	d := NewBlockDevice("disk0", 4)
	if err := d.WriteSector(4, sector(1)); err == nil {
		t.Fatal("expected out-of-range write error")
	}
	if err := d.ReadSector(4, make([]byte, SectorSize)); err == nil {
		t.Fatal("expected out-of-range read error")
	}
	if err := d.WriteSector(0, []byte{1}); err == nil {
		t.Fatal("expected bad buffer size error")
	}
}

func TestBlockRootSnapshot(t *testing.T) {
	d := NewBlockDevice("disk0", 16)
	d.WriteSector(0, sector(0x11))
	d.TakeRoot()
	d.WriteSector(0, sector(0x22))
	d.WriteSector(1, sector(0x33))
	if d.DirtySectors() != 2 {
		t.Fatalf("dirty sectors = %d, want 2", d.DirtySectors())
	}
	d.RestoreRoot()
	if got := readSector(t, d, 0); got[0] != 0x11 {
		t.Fatalf("sector 0 not restored: %#x", got[0])
	}
	if got := readSector(t, d, 1); got[0] != 0 {
		t.Fatalf("sector 1 should be zero: %#x", got[0])
	}
	if d.DirtySectors() != 0 {
		t.Fatal("dirty set should be empty after restore")
	}
}

func TestBlockIncrementalLayering(t *testing.T) {
	d := NewBlockDevice("disk0", 16)
	d.TakeRoot()
	d.WriteSector(0, sector(0x11)) // prefix write -> l1
	snap := d.SaveSnapshot()
	d.WriteSector(0, sector(0x22)) // fuzz writes over and beside the prefix
	d.WriteSector(1, sector(0x33))
	d.LoadSnapshot(snap) // prefix delta -> shared, l1 discarded
	if got := readSector(t, d, 0); got[0] != 0x11 {
		t.Fatalf("sector 0 should hold incremental content 0x11: %#x", got[0])
	}
	if got := readSector(t, d, 1); got[0] != 0 {
		t.Fatalf("sector 1 should fall back to root: %#x", got[0])
	}
	d.WriteSector(0, sector(0x44)) // shadows the frozen sector in l1
	if got := readSector(t, d, 0); got[0] != 0x44 {
		t.Fatalf("l1 should win over the shared layer: %#x", got[0])
	}
	d.LoadSnapshot(snap)
	if got := readSector(t, d, 0); got[0] != 0x11 {
		t.Fatalf("sector 0 after second restore: %#x, want 0x11", got[0])
	}
	d.RestoreRoot()
	if got := readSector(t, d, 0); got[0] != 0 {
		t.Fatalf("sector 0 should be root zero: %#x", got[0])
	}
}

func TestBlockRecreateIncremental(t *testing.T) {
	d := NewBlockDevice("disk0", 16)
	d.TakeRoot()
	d.WriteSector(0, sector(0x11))
	first := d.SaveSnapshot()
	d.WriteSector(1, sector(0x22))
	// Recreate at current state: sector 1's write must survive restores.
	snap := d.SaveSnapshot()
	d.WriteSector(1, sector(0x99))
	d.LoadSnapshot(snap)
	if got := readSector(t, d, 1); got[0] != 0x22 {
		t.Fatalf("sector 1 should hold re-snapshotted 0x22: %#x", got[0])
	}
	if got := readSector(t, d, 0); got[0] != 0x11 {
		t.Fatalf("sector 0 lost by the recreation: %#x", got[0])
	}
	// The earlier capture is a value of its own: recreating did not touch it.
	d.LoadSnapshot(first)
	if got := readSector(t, d, 1); got[0] != 0 {
		t.Fatalf("first snapshot picked up a later write: %#x", got[0])
	}
}

// Property: LoadSnapshot always yields the exact image captured at
// SaveSnapshot time, for random write workloads.
func TestBlockSnapshotIdentityProperty(t *testing.T) {
	const nsec = 32
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewBlockDevice("disk0", nsec)
		for i := 0; i < 10; i++ {
			d.WriteSector(uint64(rng.Intn(nsec)), sector(byte(rng.Intn(256))))
		}
		d.TakeRoot()
		for i := 0; i < 5; i++ {
			d.WriteSector(uint64(rng.Intn(nsec)), sector(byte(rng.Intn(256))))
		}
		snap := d.SaveSnapshot()
		ref := make([][]byte, nsec)
		for sn := 0; sn < nsec; sn++ {
			buf := make([]byte, SectorSize)
			d.ReadSector(uint64(sn), buf)
			ref[sn] = buf
		}
		for i := 0; i < 20; i++ {
			d.WriteSector(uint64(rng.Intn(nsec)), sector(byte(rng.Intn(256))))
		}
		d.LoadSnapshot(snap)
		for sn := 0; sn < nsec; sn++ {
			buf := make([]byte, SectorSize)
			d.ReadSector(uint64(sn), buf)
			if !bytes.Equal(buf, ref[sn]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockLayeredRestoreInvariants is the zero-copy restore property test:
// for random workloads, (1) LoadSnapshot → writes → LoadSnapshot yields
// byte-identical reads (the frozen delta always wins back), (2) the frozen
// delta installed as the shared layer is never mutated through aliasing —
// not by writes shadowing it, not by snapshots chained on top of it — and
// (3) a snapshot saved on top of a loaded one reproduces its own state.
func TestBlockLayeredRestoreInvariants(t *testing.T) {
	const nsec = 32
	image := func(d *BlockDevice) [][]byte {
		img := make([][]byte, nsec)
		for sn := 0; sn < nsec; sn++ {
			img[sn] = make([]byte, SectorSize)
			d.ReadSector(uint64(sn), img[sn])
		}
		return img
	}
	sameImage := func(a, b [][]byte) bool {
		for sn := range a {
			if !bytes.Equal(a[sn], b[sn]) {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewBlockDevice("disk0", nsec)
		for i := 0; i < 8; i++ {
			d.WriteSector(uint64(rng.Intn(nsec)), sector(byte(rng.Intn(256))))
		}
		d.TakeRoot()
		for i := 0; i < 10; i++ {
			d.WriteSector(uint64(rng.Intn(nsec)), sector(byte(rng.Intn(256))))
		}
		snap := d.SaveSnapshot()
		ref := image(d)
		// Freeze a private copy of the captured delta for the aliasing check.
		delta := snap.(*blockSnap).delta
		frozen := make(map[uint64][]byte, len(delta))
		for sn, b := range delta {
			frozen[sn] = append([]byte(nil), b...)
		}

		for round := 0; round < 4; round++ {
			d.LoadSnapshot(snap)
			if !sameImage(image(d), ref) {
				return false
			}
			// Writes — deliberately biased to shadow delta sectors — then
			// re-restore must return to the exact captured image.
			for i := 0; i < 6; i++ {
				d.WriteSector(uint64(rng.Intn(nsec)), sector(byte(rng.Intn(256))))
			}
			if rng.Intn(2) == 0 {
				d.SaveSnapshot() // a capture in between must not disturb the layers
				d.WriteSector(uint64(rng.Intn(nsec)), sector(byte(rng.Intn(256))))
			}
			d.LoadSnapshot(snap)
			if !sameImage(image(d), ref) {
				return false
			}
		}

		// A snapshot chained on top of the loaded one (aliasing frozen
		// sectors) must reproduce its own state, and loading it must not
		// have let anything leak into the first snapshot's delta.
		d.WriteSector(uint64(rng.Intn(nsec)), sector(byte(rng.Intn(256))))
		snap2 := d.SaveSnapshot()
		ref2 := image(d)
		for i := 0; i < 4; i++ {
			d.WriteSector(uint64(rng.Intn(nsec)), sector(byte(rng.Intn(256))))
		}
		d.LoadSnapshot(snap2)
		if !sameImage(image(d), ref2) {
			return false
		}
		d.LoadSnapshot(snap)
		if !sameImage(image(d), ref) {
			return false
		}
		for sn, b := range snap.(*blockSnap).delta {
			if !bytes.Equal(b, frozen[sn]) {
				return false // frozen delta mutated through aliasing
			}
		}
		return len(snap.(*blockSnap).delta) == len(frozen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockDirtySectorAccounting pins DirtySectors across the layered
// restore: shadowing a frozen-delta sector must not double-count it (the
// virtual-clock charge must match what the pre-layering deep-copy code
// measured).
func TestBlockDirtySectorAccounting(t *testing.T) {
	d := NewBlockDevice("disk0", 16)
	d.TakeRoot()
	d.WriteSector(1, sector(0x11))
	d.WriteSector(2, sector(0x22))
	snap := d.SaveSnapshot()
	d.LoadSnapshot(snap)
	if got := d.DirtySectors(); got != 2 {
		t.Fatalf("after load: dirty = %d, want 2", got)
	}
	d.WriteSector(1, sector(0x99)) // shadows a frozen sector
	d.WriteSector(5, sector(0x55)) // fresh sector
	if got := d.DirtySectors(); got != 3 {
		t.Fatalf("after shadow+fresh write: dirty = %d, want 3", got)
	}
	d.SaveSnapshot()               // capturing changes no layer
	d.WriteSector(1, sector(0x77)) // rewrite of the already-shadowed sector
	if got := d.DirtySectors(); got != 3 {
		t.Fatalf("after rewrite: dirty = %d, want 3 (|shared ∪ l1|)", got)
	}
	d.LoadSnapshot(snap)
	if got := d.DirtySectors(); got != 2 {
		t.Fatalf("after re-load: dirty = %d, want 2", got)
	}
	d.RestoreRoot()
	if got := d.DirtySectors(); got != 0 {
		t.Fatalf("after root restore: dirty = %d, want 0", got)
	}
}

// loadSnapshotDeepCopy replicates the pre-layering LoadSnapshot — a full
// deep copy of the captured delta into l1 — as the benchmark baseline.
func loadSnapshotDeepCopy(d *BlockDevice, s Snapshot) {
	sn := s.(*blockSnap)
	d.shared = nil
	d.l1Shadowed = 0
	d.l1 = make(map[uint64][]byte, len(sn.delta))
	for sec, b := range sn.delta {
		d.l1[sec] = append([]byte(nil), b...)
	}
	d.WritesSinceRoot = sn.writes
}

// BenchmarkBlockSnapshotRestore measures a pooled-snapshot restore with a
// large frozen delta and a small per-round write set: the zero-copy path
// installs the delta as the shared layer in O(writes-since-restore), the
// baseline replicates the pre-change O(delta) deep copy.
func BenchmarkBlockSnapshotRestore(b *testing.B) {
	const deltaSectors = 4096
	const writesPerRound = 4
	build := func() (*BlockDevice, Snapshot) {
		d := NewBlockDevice("disk0", 2*deltaSectors)
		d.TakeRoot()
		for sn := 0; sn < deltaSectors; sn++ {
			d.WriteSector(uint64(sn), sector(byte(sn)))
		}
		return d, d.SaveSnapshot()
	}
	b.Run("zero-copy", func(b *testing.B) {
		d, snap := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for w := 0; w < writesPerRound; w++ {
				d.WriteSector(uint64(w), sector(byte(i)))
			}
			d.LoadSnapshot(snap)
		}
	})
	b.Run("deep-copy-baseline", func(b *testing.B) {
		d, snap := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for w := 0; w < writesPerRound; w++ {
				d.WriteSector(uint64(w), sector(byte(i)))
			}
			loadSnapshotDeepCopy(d, snap)
		}
	})
}

func TestNICSnapshotCycle(t *testing.T) {
	n := NewNIC("eth0")
	n.Receive([]byte("boot"))
	n.TakeRoot()
	n.Receive([]byte("pkt1"))
	snap := n.SaveSnapshot()
	n.Receive([]byte("pkt2"))
	if len(n.RxQueue) != 3 {
		t.Fatalf("rx queue len = %d, want 3", len(n.RxQueue))
	}
	n.LoadSnapshot(snap)
	if len(n.RxQueue) != 2 || string(n.RxQueue[1]) != "pkt1" {
		t.Fatalf("incremental restore wrong rx queue: %v", n.RxQueue)
	}
	n.RestoreRoot()
	if len(n.RxQueue) != 1 || string(n.RxQueue[0]) != "boot" || n.RxBytes != 4 {
		t.Fatalf("root restore wrong rx queue: %q (%d bytes)", n.RxQueue, n.RxBytes)
	}
}

// A frame is the caller's again once Receive returns: reusing one buffer
// for every frame leaves each queued frame as it arrived.
func TestNICReceiveCopiesFrame(t *testing.T) {
	n := NewNIC("eth0")
	buf := []byte("pkt1")
	n.Receive(buf)
	copy(buf, "pkt2")
	n.Receive(buf)
	if len(n.RxQueue) != 2 || string(n.RxQueue[0]) != "pkt1" || string(n.RxQueue[1]) != "pkt2" {
		t.Fatalf("rx queue %q, want [pkt1 pkt2]", n.RxQueue)
	}
}

func TestSerialSnapshotTruncation(t *testing.T) {
	s := NewSerial("ttyS0")
	s.WriteString("boot\n")
	s.TakeRoot()
	s.WriteString("prefix\n")
	snap := s.SaveSnapshot()
	s.WriteString("case\n")
	s.LoadSnapshot(snap)
	if string(s.Log) != "boot\nprefix\n" {
		t.Fatalf("log = %q", s.Log)
	}
	s.RestoreRoot()
	if string(s.Log) != "boot\n" {
		t.Fatalf("log = %q", s.Log)
	}
}

func TestSetLifecycle(t *testing.T) {
	disk := NewBlockDevice("disk0", 8)
	nic := NewNIC("eth0")
	ser := NewSerial("ttyS0")
	set := NewSet(disk, nic, ser)
	disk.WriteSector(0, sector(0x77))
	set.TakeRoot()
	disk.WriteSector(0, sector(0x88))
	nic.Receive([]byte("x"))
	ser.WriteString("y")
	set.RestoreRoot()
	if got := readSector(t, disk, 0); got[0] != 0x77 {
		t.Fatalf("disk not restored: %#x", got[0])
	}
	if len(nic.RxQueue) != 0 || len(ser.Log) != 0 {
		t.Fatal("nic/serial not restored")
	}

	// The incremental half of the contract, fanned out over the set.
	disk.WriteSector(1, sector(0x99))
	nic.Receive([]byte("prefix"))
	ser.WriteString("prefix")
	snaps := set.SaveSnapshots()
	disk.WriteSector(1, sector(0xAA))
	nic.Receive([]byte("case"))
	ser.WriteString("+case")
	set.RestoreRoot()
	set.LoadSnapshots(snaps)
	if got := readSector(t, disk, 1); got[0] != 0x99 {
		t.Fatalf("disk not restored to the snapshot: %#x", got[0])
	}
	if len(nic.RxQueue) != 1 || string(ser.Log) != "prefix" {
		t.Fatalf("nic/serial not restored to the snapshot: rx=%d log=%q", len(nic.RxQueue), ser.Log)
	}
}

// Reloading the same pooled serial snapshot back-to-back takes the in-place
// truncate fast path; it must be byte-identical to the copying path, and
// any truncating operation in between must disable it.
func TestSerialSnapshotTruncateFastPath(t *testing.T) {
	s := NewSerial("ttyS0")
	s.WriteString("boot")
	s.TakeRoot()
	s.WriteString("+prefix")
	snapA := s.SaveSnapshot()
	s.WriteString("+case1")
	snapB := s.SaveSnapshot()

	s.LoadSnapshot(snapA) // cold load: copy
	if string(s.Log) != "boot+prefix" {
		t.Fatalf("cold load: log = %q", s.Log)
	}
	s.WriteString("+case2")
	s.LoadSnapshot(snapA) // warm reload: truncate
	if string(s.Log) != "boot+prefix" {
		t.Fatalf("warm reload: log = %q", s.Log)
	}
	s.LoadSnapshot(snapB) // different snapshot: copy
	if string(s.Log) != "boot+prefix+case1" {
		t.Fatalf("switch: log = %q", s.Log)
	}
	s.LoadSnapshot(snapA)
	if string(s.Log) != "boot+prefix" {
		t.Fatalf("switch back: log = %q", s.Log)
	}

	// A root restore truncates below the snapshot; the next reload must
	// not take the truncate path against a shorter log.
	s.RestoreRoot()
	if string(s.Log) != "boot" {
		t.Fatalf("root restore: log = %q", s.Log)
	}
	s.LoadSnapshot(snapA)
	if string(s.Log) != "boot+prefix" {
		t.Fatalf("reload after root: log = %q", s.Log)
	}
}

// TestSteadyStateLoadSnapshotAllocs pins the devices' half of a slot
// restore: reloading a captured snapshot and writing again — a block
// device's sectors, a NIC's queues, a console's log, switching between two
// console snapshots so both of its reload paths run — allocates nothing once
// the free sector stack and the queues have grown.
func TestSteadyStateLoadSnapshotAllocs(t *testing.T) {
	d := NewBlockDevice("disk", 64)
	d.TakeRoot()
	if err := d.WriteSector(1, sector(1)); err != nil {
		t.Fatal(err)
	}
	blockSnap := d.SaveSnapshot()
	n := NewNIC("eth0")
	n.TakeRoot()
	n.Receive([]byte("pkt1"))
	nicSnap := n.SaveSnapshot()
	s := NewSerial("ttyS0")
	s.TakeRoot()
	s.WriteString("boot\n")
	logA := s.SaveSnapshot()
	s.WriteString("more\n")
	logB := s.SaveSnapshot()
	buf := sector(2)
	cycle := func() {
		for _, log := range []Snapshot{logA, logB, logB} {
			d.LoadSnapshot(blockSnap)
			if err := d.WriteSector(2, buf); err != nil {
				t.Fatal(err)
			}
			if err := d.WriteSector(1, buf); err != nil {
				t.Fatal(err)
			}
			n.LoadSnapshot(nicSnap)
			s.LoadSnapshot(log)
			s.WriteString("x")
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state device reload→write cycle allocates %.1f times per run, want 0", allocs)
	}
	if !bytes.Equal(readSector(t, d, 1), buf) || len(n.RxQueue) != 1 || string(s.Log) != "boot\nmore\nx" {
		t.Fatal("the cycle did not leave what it wrote on the reloaded state")
	}
}
