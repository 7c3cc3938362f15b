// Package device implements the emulated device models of the simulated VM:
// a block device with the layered dirty-sector cache described in §4.2 of
// the Nyx-Net paper, a virtual NIC, and a serial console.
//
// Every device states one snapshot contract: a root snapshot it can reset
// to, plus any number of incremental snapshots captured as values
// (SaveSnapshot) and restored on demand (LoadSnapshot) — the device half of
// a VM snapshot slot. Beside that fast structured mechanism each device
// keeps the slow QEMU-style full serialize/deserialize reset, so the
// ablation benchmarks can compare the two.
//
// The block device restores a snapshot by aliasing its frozen sector delta
// and copying nothing; the first write to a restored sector shadows it in a
// private layer (see BlockDevice).
package device

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"sort"
)

// SectorSize is the block device sector size in bytes.
const SectorSize = 512

// maxFreeSectors bounds the recycled sector-buffer stack shadow writes draw
// from (32 KiB of 512 B sectors).
const maxFreeSectors = 64

// Device is the interface all emulated devices implement. The snapshot
// lifecycle mirrors the VM's: a root snapshot plus any number of
// incremental snapshots held by the caller as Snapshot values.
type Device interface {
	// Name identifies the device for diagnostics.
	Name() string

	// TakeRoot captures the device's root snapshot state.
	TakeRoot()
	// RestoreRoot resets the device to the root snapshot using the fast
	// structured mechanism.
	RestoreRoot()

	// SaveSnapshot captures the device's current state as an opaque
	// in-memory value — an incremental snapshot. Any number can be held at
	// once, and LoadSnapshot restores one regardless of what ran in
	// between.
	SaveSnapshot() Snapshot
	// LoadSnapshot restores the state captured by SaveSnapshot.
	LoadSnapshot(Snapshot)

	// SaveState serializes the full device state (QEMU-style, slow).
	SaveState() ([]byte, error)
	// LoadState restores the full device state from SaveState output.
	LoadState([]byte) error
}

// Snapshot is an opaque captured device state (SaveSnapshot/LoadSnapshot).
// Only the device that produced a value may consume it.
type Snapshot any

// SnapshotBytes estimates the heap bytes a pool snapshot holds, so the
// snapshot pool's budget can charge device captures alongside the memory
// overlay (a disk-heavy prefix stores its whole sector delta per slot —
// uncounted, that cost would grow unbounded under a "respected" budget).
func SnapshotBytes(s Snapshot) int64 {
	switch v := s.(type) {
	case *blockSnap:
		return int64(len(v.delta)) * SectorSize
	case *nicState:
		var n int64
		for _, f := range v.RxQueue {
			n += int64(len(f))
		}
		for _, f := range v.TxQueue {
			n += int64(len(f))
		}
		return n
	case []byte:
		return int64(len(v))
	default:
		return 0
	}
}

// BlockDevice models an emulated disk with the paper's two caching layers
// over the base image. Sector writes land in a hashmap layer (l1); restoring
// an incremental snapshot (LoadSnapshot) installs the captured delta as an
// immutable layer below it (shared): the frozen delta is aliased, never
// copied, and subsequent writes shadow it in l1, so restoring the snapshot
// again only needs to discard l1 — O(sectors written since the restore),
// not O(total delta). Reads check the layers top-down and fall back to the
// base image, exactly the lookup order the paper describes.
type BlockDevice struct {
	name     string
	nsectors uint64

	base   map[uint64][]byte // content at root snapshot time
	shared map[uint64][]byte // frozen incremental-snapshot delta (aliased, read-only)
	l1     map[uint64][]byte // dirtied since root snapshot (or since LoadSnapshot)

	// l1Shadowed counts sectors present in both l1 and shared, so
	// DirtySectors can report |shared ∪ l1| without walking either map.
	l1Shadowed int

	// freeSectors recycles sector buffers harvested from the dirty layer
	// at LoadSnapshot, so steady-state shadow writes allocate nothing.
	// Bounded; see maxFreeSectors.
	freeSectors [][]byte

	// WritesSinceRoot counts sector writes for cost accounting.
	WritesSinceRoot uint64
}

// NewBlockDevice creates a disk with nsectors sectors, all zero.
func NewBlockDevice(name string, nsectors uint64) *BlockDevice {
	return &BlockDevice{
		name:     name,
		nsectors: nsectors,
		base:     make(map[uint64][]byte),
		l1:       make(map[uint64][]byte),
	}
}

// Name implements Device.
func (d *BlockDevice) Name() string { return d.name }

// NumSectors returns the disk capacity in sectors.
func (d *BlockDevice) NumSectors() uint64 { return d.nsectors }

// ReadSector copies sector sn into buf (which must be SectorSize long).
func (d *BlockDevice) ReadSector(sn uint64, buf []byte) error {
	if sn >= d.nsectors {
		return fmt.Errorf("device %s: sector %d out of range", d.name, sn)
	}
	if len(buf) != SectorSize {
		return fmt.Errorf("device %s: bad buffer size %d", d.name, len(buf))
	}
	if s, ok := d.l1[sn]; ok {
		copy(buf, s)
		return nil
	}
	if s, ok := d.shared[sn]; ok {
		copy(buf, s)
		return nil
	}
	if s, ok := d.base[sn]; ok {
		copy(buf, s)
		return nil
	}
	for i := range buf {
		buf[i] = 0
	}
	return nil
}

// WriteSector writes buf (SectorSize bytes) to sector sn.
func (d *BlockDevice) WriteSector(sn uint64, buf []byte) error {
	if sn >= d.nsectors {
		return fmt.Errorf("device %s: sector %d out of range", d.name, sn)
	}
	if len(buf) != SectorSize {
		return fmt.Errorf("device %s: bad buffer size %d", d.name, len(buf))
	}
	s, ok := d.l1[sn]
	if !ok {
		if n := len(d.freeSectors); n > 0 {
			s = d.freeSectors[n-1]
			d.freeSectors = d.freeSectors[:n-1]
		} else {
			s = make([]byte, SectorSize)
		}
		d.l1[sn] = s
		if _, shadowed := d.shared[sn]; shadowed {
			d.l1Shadowed++
		}
	}
	copy(s, buf)
	d.WritesSinceRoot++
	return nil
}

// TakeRoot implements Device: current content becomes the base image.
func (d *BlockDevice) TakeRoot() {
	for sn, s := range d.shared {
		d.base[sn] = s
	}
	for sn, s := range d.l1 {
		d.base[sn] = s
	}
	d.shared = nil
	d.l1 = make(map[uint64][]byte)
	d.l1Shadowed = 0
	d.WritesSinceRoot = 0
}

// RestoreRoot implements Device: drop the dirty layer and any installed
// snapshot delta.
func (d *BlockDevice) RestoreRoot() {
	if len(d.l1) > 0 {
		d.l1 = make(map[uint64][]byte)
	}
	d.shared = nil
	d.l1Shadowed = 0
	d.WritesSinceRoot = 0
}

// DirtySectors returns how many sectors differ from the root snapshot:
// |shared ∪ l1|.
func (d *BlockDevice) DirtySectors() int {
	return len(d.shared) + len(d.l1) - d.l1Shadowed
}

// blockSnap is a BlockDevice incremental snapshot: the flattened dirty delta
// against the base image. The delta map and its sector buffers are frozen
// at capture time — LoadSnapshot aliases them directly, so they must never
// be mutated.
type blockSnap struct {
	delta  map[uint64][]byte
	writes uint64
}

// harvest reclaims a dirty layer's sector buffers into the bounded free
// stack before the layer is cleared, so the next cycle's shadow writes reuse
// them instead of allocating.
//
//nyx:hotpath
func (d *BlockDevice) harvest(layer map[uint64][]byte) {
	// Which buffers survive the cap, and in what order, is unobservable:
	// they are fungible scratch whose content is fully overwritten on reuse.
	//nyx:maporder recycled buffers are fungible; order cannot escape
	for _, b := range layer {
		if len(d.freeSectors) >= maxFreeSectors {
			break
		}
		d.freeSectors = append(d.freeSectors, b)
	}
}

// SaveSnapshot implements Device: flatten the caching layers into one
// delta-vs-base map. Sectors inherited from an installed frozen delta are
// aliased (immutable in, immutable out); l1 contents are copied because
// WriteSector mutates those buffers in place.
func (d *BlockDevice) SaveSnapshot() Snapshot {
	sn := &blockSnap{delta: make(map[uint64][]byte, len(d.shared)+len(d.l1)), writes: d.WritesSinceRoot}
	for s, b := range d.shared {
		sn.delta[s] = b
	}
	for s, b := range d.l1 {
		sn.delta[s] = append([]byte(nil), b...)
	}
	return sn
}

// LoadSnapshot implements Device: the captured delta is installed as the
// frozen shared layer — aliased, not copied — and the own dirty layer is
// cleared, so a repeat restore costs O(sectors written since the previous
// restore) instead of O(delta). Reads fall through shared to the untouched
// base image; writes shadow the frozen delta in l1, in buffers harvested from
// the layer cleared here.
//
//nyx:hotpath
func (d *BlockDevice) LoadSnapshot(s Snapshot) {
	sn := s.(*blockSnap)
	d.shared = sn.delta
	if len(d.l1) > 0 {
		d.harvest(d.l1)
		clear(d.l1)
	}
	d.l1Shadowed = 0
	d.WritesSinceRoot = sn.writes
}

type blockState struct {
	NSectors uint64
	Sectors  map[uint64][]byte
}

// SaveState implements Device via gob serialization of the flattened image.
func (d *BlockDevice) SaveState() ([]byte, error) {
	st := blockState{NSectors: d.nsectors, Sectors: make(map[uint64][]byte)}
	for sn, s := range d.base {
		st.Sectors[sn] = s
	}
	for sn, s := range d.shared {
		st.Sectors[sn] = s
	}
	for sn, s := range d.l1 {
		st.Sectors[sn] = s
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("device %s: save: %w", d.name, err)
	}
	return buf.Bytes(), nil
}

// LoadState implements Device.
func (d *BlockDevice) LoadState(b []byte) error {
	var st blockState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return fmt.Errorf("device %s: load: %w", d.name, err)
	}
	d.nsectors = st.NSectors
	d.base = st.Sectors
	d.shared = nil
	d.l1 = make(map[uint64][]byte)
	d.l1Shadowed = 0
	return nil
}

// NIC models a virtual network interface: transmit/receive rings and
// counters. Real traffic never flows through it while the emulation layer
// is active; it exists so that device-reset costs and state fidelity are
// accounted for like in the real system.
type NIC struct {
	name string

	RxQueue [][]byte
	TxQueue [][]byte
	RxBytes uint64
	TxBytes uint64
	Up      bool

	rootState nicState
}

type nicState struct {
	RxQueue [][]byte
	TxQueue [][]byte
	RxBytes uint64
	TxBytes uint64
	Up      bool
}

// NewNIC creates a NIC that is administratively up.
func NewNIC(name string) *NIC {
	return &NIC{name: name, Up: true}
}

// Name implements Device.
func (n *NIC) Name() string { return n.name }

// Transmit enqueues an outbound frame.
func (n *NIC) Transmit(frame []byte) {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	n.TxQueue = append(n.TxQueue, cp)
	n.TxBytes += uint64(len(frame))
}

// Receive enqueues an inbound frame.
func (n *NIC) Receive(frame []byte) {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	n.RxQueue = append(n.RxQueue, cp)
	n.RxBytes += uint64(len(frame))
}

func (n *NIC) capture() nicState {
	st := nicState{RxBytes: n.RxBytes, TxBytes: n.TxBytes, Up: n.Up}
	st.RxQueue = append([][]byte(nil), n.RxQueue...)
	st.TxQueue = append([][]byte(nil), n.TxQueue...)
	return st
}

// apply restores queue state into the NIC's own backing arrays. Reslicing
// to [:0] (not [:0:0]) reuses the live arrays across restores: snapshots
// never alias them — capture copies the queue headers into fresh arrays and
// frame buffers are immutable once enqueued — so the only effect is that
// the per-restore reallocation disappears.
//
//nyx:hotpath
func (n *NIC) apply(st nicState) {
	n.RxQueue = append(n.RxQueue[:0], st.RxQueue...)
	n.TxQueue = append(n.TxQueue[:0], st.TxQueue...)
	n.RxBytes = st.RxBytes
	n.TxBytes = st.TxBytes
	n.Up = st.Up
}

// TakeRoot implements Device.
func (n *NIC) TakeRoot() { n.rootState = n.capture() }

// RestoreRoot implements Device.
func (n *NIC) RestoreRoot() { n.apply(n.rootState) }

// SaveSnapshot implements Device.
func (n *NIC) SaveSnapshot() Snapshot { st := n.capture(); return &st }

// LoadSnapshot implements Device.
//
//nyx:hotpath
func (n *NIC) LoadSnapshot(s Snapshot) { n.apply(*s.(*nicState)) }

// SaveState implements Device.
func (n *NIC) SaveState() ([]byte, error) {
	var buf bytes.Buffer
	st := n.capture()
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("device %s: save: %w", n.name, err)
	}
	return buf.Bytes(), nil
}

// LoadState implements Device.
func (n *NIC) LoadState(b []byte) error {
	var st nicState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return fmt.Errorf("device %s: load: %w", n.name, err)
	}
	n.apply(st)
	return nil
}

// Serial models a write-only serial console; targets log through it and the
// fuzzer reads crash reports from it.
type Serial struct {
	name string
	Log  []byte

	rootLen int

	// loaded remembers the snapshot the log was last restored to,
	// while Log[:len(loaded)] still mirrors it. The log is append-only
	// between restores, so reloading the same frozen snapshot can truncate
	// in place instead of copying the whole captured log — the hot case
	// when one pooled slot is restored back-to-back. Any other operation
	// that truncates or replaces the log clears it.
	loaded []byte
}

// NewSerial creates an empty serial console.
func NewSerial(name string) *Serial { return &Serial{name: name} }

// Name implements Device.
func (s *Serial) Name() string { return s.name }

// WriteString appends to the console log.
func (s *Serial) WriteString(msg string) { s.Log = append(s.Log, msg...) }

// TakeRoot implements Device.
func (s *Serial) TakeRoot() { s.rootLen = len(s.Log) }

// RestoreRoot implements Device.
func (s *Serial) RestoreRoot() { s.Log = s.Log[:s.rootLen]; s.loaded = nil }

// SaveSnapshot implements Device.
func (s *Serial) SaveSnapshot() Snapshot {
	return append([]byte(nil), s.Log...)
}

// LoadSnapshot implements Device. The log's own backing array is reused
// ([:0], not [:0:0]): SaveSnapshot hands out fresh copies, so no snapshot
// aliases s.Log and the copy-in cannot corrupt captured state. Reloading
// the snapshot the log already derives from (same frozen slice, nothing
// but appends since) truncates in place instead of re-copying.
//
//nyx:hotpath
func (s *Serial) LoadSnapshot(sn Snapshot) {
	b := sn.([]byte)
	if len(b) > 0 && len(s.loaded) == len(b) && &s.loaded[0] == &b[0] && len(s.Log) >= len(b) {
		s.Log = s.Log[:len(b)]
	} else {
		s.Log = append(s.Log[:0], b...)
		s.loaded = b
	}
}

// SaveState implements Device.
func (s *Serial) SaveState() ([]byte, error) {
	cp := make([]byte, len(s.Log))
	copy(cp, s.Log)
	return cp, nil
}

// LoadState implements Device.
func (s *Serial) LoadState(b []byte) error {
	s.Log = append(s.Log[:0:0], b...)
	s.loaded = nil
	return nil
}

// Set is an ordered collection of devices sharing a snapshot lifecycle.
type Set struct {
	devices []Device
}

// NewSet creates a device set.
func NewSet(devs ...Device) *Set { return &Set{devices: devs} }

// Add appends a device to the set.
func (s *Set) Add(d Device) { s.devices = append(s.devices, d) }

// Devices returns a copy of the device list in registration order (the
// set's own slice grows on Add).
func (s *Set) Devices() []Device { return slices.Clone(s.devices) }

// Lookup finds a device by name, or nil.
func (s *Set) Lookup(name string) Device {
	for _, d := range s.devices {
		if d.Name() == name {
			return d
		}
	}
	return nil
}

// TakeRoot snapshots all devices.
func (s *Set) TakeRoot() {
	for _, d := range s.devices {
		d.TakeRoot()
	}
}

// RestoreRoot resets all devices to the root snapshot (fast path).
func (s *Set) RestoreRoot() {
	for _, d := range s.devices {
		d.RestoreRoot()
	}
}

// SaveSnapshots captures every device's incremental snapshot, in registration
// order (the order LoadSnapshots expects).
func (s *Set) SaveSnapshots() []Snapshot {
	out := make([]Snapshot, len(s.devices))
	for i, d := range s.devices {
		out[i] = d.SaveSnapshot()
	}
	return out
}

// LoadSnapshots restores a SaveSnapshots capture from the same device set.
func (s *Set) LoadSnapshots(snaps []Snapshot) {
	for i, d := range s.devices {
		d.LoadSnapshot(snaps[i])
	}
}

// SaveAll serializes every device (the slow QEMU-style baseline). Devices
// are encoded in name order for determinism.
func (s *Set) SaveAll() (map[string][]byte, error) {
	names := make([]string, 0, len(s.devices))
	byName := make(map[string]Device, len(s.devices))
	for _, d := range s.devices {
		names = append(names, d.Name())
		byName[d.Name()] = d
	}
	sort.Strings(names)
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		b, err := byName[name].SaveState()
		if err != nil {
			return nil, err
		}
		out[name] = b
	}
	return out, nil
}

// LoadAll restores every device from a SaveAll image.
func (s *Set) LoadAll(img map[string][]byte) error {
	for _, d := range s.devices {
		b, ok := img[d.Name()]
		if !ok {
			return fmt.Errorf("device set: no saved state for %q", d.Name())
		}
		if err := d.LoadState(b); err != nil {
			return err
		}
	}
	return nil
}
