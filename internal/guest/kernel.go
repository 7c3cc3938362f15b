// Package guest implements the simulated in-VM operating system: processes,
// file descriptors, sockets, epoll, a block-device-backed filesystem, and
// the target model. All logical state (the kernel's own plus the target's)
// has two forms: the Go structs the handlers work on, and a serialized image
// in guest physical memory, which is what whole-VM snapshots taken by
// package vm capture and restore — the property §3.2 of the Nyx-Net paper
// relies on ("the snapshot ensures that all state ... is correctly reset
// between test cases"). The two forms are kept coherent by a three-state
// contract with package vm (see vm.SnapshotHooks for the machine's half):
//
//   - clean: struct form and memory agree. Set by boot, by a flush and by a
//     hydrate.
//   - dirty: the struct form is ahead of memory. Set only by the kernel's
//     event entry points (NewConnection, Deliver, CloseConn,
//     ResetCorruption, MarkDirty), before any target code runs, so
//     everything a handler mutates — kernel syscalls, the filesystem, the
//     allocator model, target fields — is covered even when the handler
//     crashes half-way. Cleared by the flush hook, which the machine calls
//     before every snapshot take: one serialization per capture, not one per
//     event or VM exit. Cleared too by the discard hook, which the machine
//     calls before every restore: the state is about to be thrown away, so
//     it is not written; the hook only reports the range a flush would have
//     written, and the restore resets and charges those pages as if it had.
//   - stale: memory is ahead of the struct form. Set only by the machine's
//     restore hook (after the discard, so dirty and stale never hold
//     together; the discarded struct state is simply overwritten). Cleared
//     only by hydrate, which the first state access after the restore runs,
//     so restore cost never scales with the size of the serialized state.
//
// Code that mutates kernel or target state outside an event (a netemu custom
// opcode, a test poking a target) must call MarkDirty first; code that reads
// guest memory directly must do so after a capture (a snapshot take).
//
// One restore, hydrate, events, discard cycle runs per test case, with a
// flush wherever it takes a snapshot, so the conversions reuse what the last
// cycle left: hydrate refills the kernel's tables, their objects and the
// objects' fd, watch and sent lists in place, restored responses point into
// the kernel's copy of an image and sent ones into one send buffer behind it,
// flush and discard encode into a kept buffer, the filesystem skips both
// directions while its metadata is unchanged (see FS), and a target keeps
// what it has per connection in a Table, the ordered
// container that is written by a walk and refilled in place. The price is a
// lifetime rule: a *Conn, *Process or *OpenDesc, and a Conn.Sent slice or any
// response in it, restored or sent, is valid until the next snapshot restore.
// After one the same object may be a different connection, and the first
// hydrate may overwrite the image copy and truncates the send buffer, so the
// bytes of a held response become those of another; hold the id and ask
// Kernel.Conn again. The image format is untouched by any of this, and a
// kernel that has run a million test cases writes the same bytes for a state
// as one that has just booted.
//
// Most restores bring back a state the kernel has hydrated before — the same
// slot, resumed again — so hydrate also copies back instead of decoding, by
// one rule: a hydrate reuses what it decoded only for the capture it decoded.
// The kernel keeps the last image it read in its one image buffer, a private
// copy of the tables its own section (counters, descs, procs, conns) decoded
// to, and the number of the capture the image came from
// (vm.SnapshotHooks.Restored); every Table keeps the length of its section
// and the keys and values it decoded to, and the filesystem its section. A
// restore of that same capture brings back that same image, so hydrate reads
// no guest memory: it copies the kernel's tables back and reads the rest of
// the kept image on a reread reader, on which every Table copies back and
// the filesystem skips its section. Any other restore reads the image from
// memory and decodes it, every section included, and its capture's number is
// kept in its place. No byte is compared on either path. What a copy-back
// installs is therefore what a decode of the restored image would, and the
// responses it restores point into the kept image.
package guest

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/vm"
)

// Proto is a transport protocol of the attack surface.
type Proto string

// Supported socket protocols.
const (
	TCP  Proto = "tcp"
	UDP  Proto = "udp"
	Unix Proto = "unix"
)

// Port names one element of the target's attack surface.
type Port struct {
	Proto Proto
	Num   int
}

// String renders the port for diagnostics.
func (p Port) String() string { return fmt.Sprintf("%s/%d", p.Proto, p.Num) }

// FDKind discriminates open file description types.
type FDKind uint8

// Open description kinds.
const (
	FDConn FDKind = iota
	FDFile
	FDEpoll
)

// OpenDesc is an open file description, shared between aliasing fds (dup,
// fork inheritance), as in POSIX.
type OpenDesc struct {
	ID     int
	Kind   FDKind
	ConnID int    // for FDConn
	Path   string // for FDFile
	Watch  []int  // for FDEpoll: the watched desc IDs, ascending
	Refs   int
}

// FD is one entry of a process's fd table: an fd number and the ID of the
// open description behind it.
type FD struct {
	Num  int
	Desc int
}

// Process is a guest process: a pid and an fd table in ascending fd order.
type Process struct {
	PID    int
	Parent int
	FDs    []FD
	nextFD int
}

// Conn is an emulated network connection on the attack surface.
type Conn struct {
	ID     int
	Port   Port
	DescID int
	Closed bool
	// Sent collects the target's responses during the current test case
	// (rolled back by snapshot restores along with everything else). The
	// responses it holds point into the kernel's copy of the image its
	// section was decoded from (those a restore brought back) or its send
	// buffer (those sent since): like the Conn itself they are valid until
	// the next restore.
	Sent [][]byte
}

// Kernel is the simulated guest OS.
type Kernel struct {
	M      *vm.Machine
	FS     *FS
	Target Target
	ports  []Port // Target.Ports() at boot: the attack surface does not change

	// Asan enables AddressSanitizer-like instant detection of memory
	// corruption; without it corruption accumulates silently (see
	// Env.CorruptMemory and Table 1's dcmtk discussion).
	Asan bool

	// AllocLimit is an allocation budget: Env.Alloc beyond it raises an OOM
	// crash. Zero means unlimited, and no launch path sets it (targets,
	// campaigns and experiments all run with 0), so the OOM crash arises
	// only where a caller sets a limit by hand, as the tests do. It is not
	// the ProFuzzBench docker memory limit.
	AllocLimit int64

	kernelState

	heapBase int64 // guest-physical address where state is serialized
	booted   bool

	// stored is the blob length in the header of the image in guest memory,
	// as syncToMemory last wrote it or syncFromMemory last hydrated it (read
	// from the header, or the kept image's length when the capture number
	// says memory holds that image). Only a flush or a restore changes the
	// header, and every event hydrates first, so it is current whenever the
	// kernel is dirty, which is when discard and a flush read it.
	stored int

	// stale marks the struct form of the state as behind guest memory
	// after a snapshot restore, and restored is the number of the capture
	// that restore brought back. The restore hook only sets the two; the
	// first state access afterwards pays the decode (see hydrate). That keeps
	// the restore hot path O(dirty pages), independent of the guest-state
	// blob size.
	stale    bool
	restored uint64

	// dirty marks the struct form as ahead of guest memory: an event ran
	// (or is running) since the last flush or discard. The event entry
	// points only flip this flag; the machine's flush hook pays the one
	// serialization at the next capture, and its discard hook drops the
	// state at the next restore (see flush, discard and the package comment).
	dirty bool

	// enc and dec are the codec's scratch, recycled across the
	// serialize-at-capture and decode-after-restore paths, and size the
	// measuring writer discard learns the target section's length with. img
	// is the kernel's one image buffer, holding the last image it read; a
	// hydrate that decodes reads the restored image over it. sendBuf is what
	// the target has sent since the last hydrate. A Conn.Sent response points
	// into img or sendBuf until a hydrate reads another image or truncates
	// the send buffer.
	enc     StateWriter
	dec     StateReader
	size    StateWriter
	img     []byte
	sendBuf []byte

	// base is what img[:baseLen], the kernel section of img, decoded to, held
	// apart from the struct form. capture is the number of the capture img
	// was read from, and so the one base, the filesystem's read encoding and
	// what every Table keeps of its section came from, or 0 while they hold
	// no capture's image: before the first hydrate, after a decode that
	// failed and after DecodeImage. A hydrate of that capture copies back
	// from them instead of reading memory (see copyBack). hits and decodes
	// count the hydrates served each way.
	base          kernelState
	baseLen       int
	capture       uint64
	hits, decodes int

	env *Env
}

// kernelState is the kernel's own state, the first section of the image.
type kernelState struct {
	// The tables hold their objects in ascending id order: the order ids
	// are handed out in and the order the image lists them in, so neither
	// creating an object nor encoding a table sorts anything. A restore to
	// a shorter table leaves the surplus objects in the slice's spare
	// capacity, and the next object created, decoded or copied back there
	// reuses one (see extend) — which is why a pointer into a table is good
	// only until the next restore.
	procs    []*Process
	descs    []*OpenDesc
	conns    []*Conn
	nextPID  int
	nextDesc int
	nextConn int

	corruption int   // accumulated undetected memory corruption
	allocated  int64 // live allocation estimate
}

// copyFrom makes s a copy of src that shares no object or container with it,
// refilling s's tables in place the way a decode does.
func (s *kernelState) copyFrom(src *kernelState) {
	procs, descs, conns := refill(s.procs, src.procs), refill(s.descs, src.descs), refill(s.conns, src.conns)
	*s = *src
	s.procs, s.descs, s.conns = procs, descs, conns
}

// refill makes dst a copy of src, reusing dst's objects (see extend) and, in
// set, their containers.
func refill[T any, P interface {
	*T
	set(src *T)
}](dst, src []*T) []*T {
	dst = dst[:0]
	for _, s := range src {
		var d *T
		dst, d = extend(dst)
		P(d).set(s)
	}
	return dst
}

func (d *OpenDesc) set(src *OpenDesc) { w := d.Watch; *d = *src; d.Watch = append(w[:0], src.Watch...) }
func (p *Process) set(src *Process)   { f := p.FDs; *p = *src; p.FDs = append(f[:0], src.FDs...) }
func (c *Conn) set(src *Conn)         { s := c.Sent; *c = *src; c.Sent = append(s[:0], src.Sent...) }

// NewKernel boots a kernel on machine m with the given target program.
// Target initialization (its startup routine) runs before the root snapshot
// is taken, exactly as in the paper: the expensive startup happens once.
func NewKernel(m *vm.Machine, target Target) (*Kernel, error) {
	k := &Kernel{
		M:           m,
		FS:          NewFS(m.Disk),
		Target:      target,
		ports:       target.Ports(),
		kernelState: kernelState{nextPID: 1, nextDesc: 1, nextConn: 1},
		heapBase:    4096, // page 0 reserved
	}
	k.env = &Env{k: k}
	k.size.measuring = true
	k.FS.hydrate = k.hydrate
	// Wire the kernel into the machine's snapshot lifecycle. Memory is what
	// snapshots capture, so the machine flushes the struct form into it
	// before it takes one, and a restore discards the struct form instead.
	// The restore hook only marks it stale and notes the capture — the decode
	// is deferred to the first state access (hydrate), so back-to-back
	// restores never pay for re-reading a blob nothing looked at.
	m.GuestHooks = vm.SnapshotHooks{
		Flush:    k.flush,
		Discard:  k.discard,
		Restored: func(capture uint64) { k.stale, k.restored = true, capture },
	}
	// Boot: create the init process and run target startup.
	init := k.newProcess(0)
	k.env.proc = init
	if err := target.Init(k.env); err != nil {
		return nil, fmt.Errorf("guest: target %s init: %w", target.Name(), err)
	}
	k.booted = true
	k.syncToMemory()
	return k, nil
}

// Env returns the target execution environment.
func (k *Kernel) Env() *Env { return k.env }

// hydrate re-reads kernel + target state from guest memory if a snapshot
// restore invalidated the struct form. Every public state accessor calls
// this first, so the blob decode is paid at most once per test case — on
// the execution wall, not the restore wall. Clearing stale before the
// decode makes nested hydrations (e.g. FS access from Target.LoadState)
// no-ops.
func (k *Kernel) hydrate() {
	if !k.stale {
		return
	}
	k.stale = false
	k.syncFromMemory()
}

// MarkDirty declares that the caller is about to mutate kernel or target
// state: it hydrates the struct form and marks it ahead of guest memory, so
// the next capture writes it back. The kernel's own event entry points do
// the same before invoking the target; this is the exported form for
// mutations that happen outside an event (netemu's custom opcodes).
func (k *Kernel) MarkDirty() {
	k.hydrate()
	k.dirty = true
}

// flush is the machine's SnapshotHooks.Flush, which runs before every
// snapshot take: it writes the struct form back to guest memory if an event
// dirtied it, and is a no-op otherwise. It is the only writer of guest memory
// after boot; the end of a test case writes nothing (see discard).
func (k *Kernel) flush() {
	if !k.dirty {
		return
	}
	k.dirty = false
	k.syncToMemory()
}

// discard is the machine's SnapshotHooks.Discard, which runs before every
// restore: the restore replaces guest memory, so a dirty struct form is
// dropped without being written. It returns exactly the range syncToMemory
// would write, [heapBase, heapBase+4+max(stored, n)) with n the length of the
// state's image, for the restore to reset and charge as if it had been
// written. n is the sum of the three sections' lengths: the kernel's computed
// from its tables, the filesystem's cached encoding, and the target's,
// measured by running its SaveState on a measuring writer, which encodes
// nothing. A clean kernel returns an empty range, as a flush writes nothing.
//
// Precondition: no event runs between the end of a test case and the next
// restore. Then the range is what a flush at the end of the test case would
// write, and every restore resets and charges the pages it would have with a
// write-back at each VM exit. The netemu agent and the baseline executors
// restore before the next test case's first event.
func (k *Kernel) discard() (off int64, n int) {
	if !k.dirty {
		return 0, 0
	}
	k.dirty = false
	k.size.Reset()
	k.Target.SaveState(&k.size)
	n = 4 + max(k.stored, k.kernelLen()+len(k.FS.encoding())+k.size.n)
	if k.heapBase+int64(n) > k.M.Mem.Size() {
		panic(fmt.Sprintf("guest: state discard (%d bytes) beyond guest memory — enlarge VM memory", n-4))
	}
	return k.heapBase, n
}

// extend lengthens the table s by one and returns the object now last in it:
// the one a longer table left there before a restore cut it back, or a new
// one. The caller overwrites every field, keeping only the containers.
func extend[T any](s []*T) ([]*T, *T) {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
	} else {
		s = append(s, nil)
	}
	if s[len(s)-1] == nil {
		s[len(s)-1] = new(T)
	}
	return s, s[len(s)-1]
}

// object is what the kernel's tables hold.
type object interface{ Process | OpenDesc | Conn }

// idOf returns o's id, the key its table ascends in.
func idOf[T object](o *T) int {
	switch o := any(o).(type) {
	case *Conn:
		return o.ID
	case *OpenDesc:
		return o.ID
	case *Process:
		return o.PID
	}
	panic("guest: not a table object")
}

// find returns the position of the object with the given id in the table s,
// or the one to insert it at, and whether it is there. It searches the way
// Table.find does: the id asked for is nearly always a recent one, so a table
// of a handful is scanned from the back, and a longer one is bisected.
func find[T object](s []*T, id int) (int, bool) {
	if len(s) > 8 {
		lo, hi := 0, len(s)
		for lo < hi {
			h := int(uint(lo+hi) >> 1)
			if idOf(s[h]) < id {
				lo = h + 1
			} else {
				hi = h
			}
		}
		return lo, lo < len(s) && idOf(s[lo]) == id
	}
	i := len(s)
	for i > 0 && idOf(s[i-1]) > id {
		i--
	}
	if i > 0 && idOf(s[i-1]) == id {
		return i - 1, true
	}
	return i, false
}

// lookup returns the object with the given id in the table s, or nil.
func lookup[T object](s []*T, id int) *T {
	if i, ok := find(s, id); ok {
		return s[i]
	}
	return nil
}

func (k *Kernel) newProcess(parent int) *Process {
	var p *Process
	k.procs, p = extend(k.procs)
	*p = Process{PID: k.nextPID, Parent: parent, FDs: p.FDs[:0], nextFD: 3}
	k.nextPID++
	return p
}

func (k *Kernel) newDesc(kind FDKind, conn int) *OpenDesc {
	var d *OpenDesc
	k.descs, d = extend(k.descs)
	*d = OpenDesc{ID: k.nextDesc, Kind: kind, ConnID: conn, Watch: d.Watch[:0]}
	k.nextDesc++
	return d
}

// InitProcess returns the first process (pid 1), or nil once it has exited.
func (k *Kernel) InitProcess() *Process { k.hydrate(); return k.initProc() }

// initProc is InitProcess on a hydrated kernel: the table is in pid order and
// no pid is lower, so the init process is first in it or not in it.
func (k *Kernel) initProc() *Process {
	if len(k.procs) > 0 && k.procs[0].PID == 1 {
		return k.procs[0]
	}
	return nil
}

// Processes returns the number of live processes.
func (k *Kernel) Processes() int { k.hydrate(); return len(k.procs) }

// Conn returns the connection with the given ID, or nil.
func (k *Kernel) Conn(id int) *Conn { k.hydrate(); return lookup(k.conns, id) }

// Corruption returns the accumulated undetected memory corruption count.
func (k *Kernel) Corruption() int { k.hydrate(); return k.corruption }

// installFD adds desc to p's fd table and returns the fd number.
func (k *Kernel) installFD(p *Process, desc *OpenDesc) int {
	fd := p.nextFD
	p.nextFD++
	p.FDs = append(p.FDs, FD{Num: fd, Desc: desc.ID}) // nextFD only grows: still ascending
	desc.Refs++
	return fd
}

// fdIndex returns the position of fd in p's table and whether it is open.
func (p *Process) fdIndex(fd int) (int, bool) {
	return slices.BinarySearchFunc(p.FDs, fd, func(e FD, fd int) int { return cmp.Compare(e.Num, fd) })
}

// desc resolves an fd in process p.
func (k *Kernel) desc(p *Process, fd int) (*OpenDesc, error) {
	i, ok := p.fdIndex(fd)
	if !ok {
		return nil, fmt.Errorf("guest: pid %d: bad fd %d", p.PID, fd)
	}
	d := lookup(k.descs, p.FDs[i].Desc)
	if d == nil {
		return nil, fmt.Errorf("guest: pid %d: fd %d references dead desc %d", p.PID, fd, p.FDs[i].Desc)
	}
	return d, nil
}

// NewConnection establishes a connection to port on behalf of the fuzzer
// and returns it. The owning process is the init process; forked workers
// inherit descriptions via Fork. Charges emulated-connect cost (cheap: the
// whole point of the emulation layer).
func (k *Kernel) NewConnection(port Port) (*Conn, int, error) {
	k.hydrate()
	if !k.portServed(port) {
		return nil, 0, fmt.Errorf("guest: no listener on %s", port)
	}
	k.dirty = true
	k.M.Clock.Advance(k.M.Cost.Syscall * 3) // socket+accept+fcntl, all hooked
	var c *Conn
	k.conns, c = extend(k.conns)
	d := k.newDesc(FDConn, k.nextConn)
	*c = Conn{ID: k.nextConn, Port: port, DescID: d.ID, Sent: c.Sent[:0]}
	k.nextConn++
	p := k.InitProcess()
	fd := k.installFD(p, d)
	k.env.proc = p
	k.Target.OnConnect(k.env, c)
	return c, fd, nil
}

func (k *Kernel) portServed(port Port) bool { return slices.Contains(k.ports, port) }

// Deliver hands one packet on conn c to the target, as if a hooked recv()
// returned it. Packet boundaries are preserved exactly (§3.3). The returned
// error is non-nil only for kernel-level faults; target crashes surface as
// *CrashError panics that the netemu driver recovers.
func (k *Kernel) Deliver(c *Conn, data []byte) error {
	k.hydrate()
	if c.Closed {
		return fmt.Errorf("guest: delivery on closed conn %d", c.ID)
	}
	k.dirty = true
	k.M.Clock.Advance(k.M.Cost.EmulatedPoll + k.M.Cost.EmulatedRecv + k.M.Cost.DeliveryOver)
	k.env.proc = k.InitProcess()
	k.Target.OnPacket(k.env, c, data)
	return nil
}

// CloseConn closes the fuzzer side of a connection and notifies the target.
func (k *Kernel) CloseConn(c *Conn) {
	k.hydrate()
	if c.Closed {
		return
	}
	k.dirty = true
	c.Closed = true
	k.M.Clock.Advance(k.M.Cost.Syscall)
	k.Target.OnDisconnect(k.env, c)
}

// Dup duplicates fd in process p, returning the new fd number.
func (k *Kernel) Dup(p *Process, fd int) (int, error) {
	k.hydrate()
	d, err := k.desc(p, fd)
	if err != nil {
		return 0, err
	}
	k.M.Clock.Advance(k.M.Cost.Syscall)
	return k.installFD(p, d), nil
}

// Close closes fd in process p, releasing the description at zero refs.
func (k *Kernel) Close(p *Process, fd int) error {
	k.hydrate()
	d, err := k.desc(p, fd)
	if err != nil {
		return err
	}
	k.M.Clock.Advance(k.M.Cost.Syscall)
	i, _ := p.fdIndex(fd)
	p.FDs = slices.Delete(p.FDs, i, i+1)
	d.Refs--
	if d.Refs <= 0 {
		i, _ := find(k.descs, d.ID)
		k.descs = slices.Delete(k.descs, i, i+1)
		if d.Kind == FDConn {
			if c := lookup(k.conns, d.ConnID); c != nil {
				c.Closed = true
			}
		}
	}
	return nil
}

// Fork creates a child of p inheriting its fd table (descriptions shared,
// as with real fork — the reason §3.3 needs cross-process packet-stream
// synchronisation).
func (k *Kernel) Fork(p *Process) *Process {
	k.hydrate()
	k.M.Clock.Advance(k.M.Cost.Fork)
	child := k.newProcess(p.PID)
	child.FDs = append(child.FDs, p.FDs...)
	for _, e := range p.FDs {
		if d := lookup(k.descs, e.Desc); d != nil {
			d.Refs++
		}
	}
	child.nextFD = p.nextFD
	return child
}

// Exit terminates process p, closing its fds.
func (k *Kernel) Exit(p *Process) {
	k.hydrate()
	for i := len(p.FDs) - 1; i >= 0; i-- { // Close removes the entry at i and moves none before it
		k.Close(p, p.FDs[i].Num) //nolint:errcheck // fds are valid by construction
	}
	if i, ok := find(k.procs, p.PID); ok {
		k.procs = slices.Delete(k.procs, i, i+1)
	}
}

// EpollCreate makes an epoll instance in p.
func (k *Kernel) EpollCreate(p *Process) int {
	k.hydrate()
	k.M.Clock.Advance(k.M.Cost.Syscall)
	return k.installFD(p, k.newDesc(FDEpoll, 0))
}

// EpollAdd registers fd with the epoll instance epfd.
func (k *Kernel) EpollAdd(p *Process, epfd, fd int) error {
	k.hydrate()
	ep, err := k.desc(p, epfd)
	if err != nil {
		return err
	}
	if ep.Kind != FDEpoll {
		return fmt.Errorf("guest: fd %d is not an epoll instance", epfd)
	}
	target, err := k.desc(p, fd)
	if err != nil {
		return err
	}
	k.M.Clock.Advance(k.M.Cost.Syscall)
	if i, ok := slices.BinarySearch(ep.Watch, target.ID); !ok {
		ep.Watch = slices.Insert(ep.Watch, i, target.ID)
	}
	return nil
}

// EpollReady reports whether the epoll instance epfd watches the
// description backing conn — used by the emulation layer to decide which
// fd to signal as ready when the bytecode schedules a packet (§3.3: "more
// complex APIs such as epoll() are emulated to indicate which fd is ready").
func (k *Kernel) EpollReady(p *Process, epfd int, conn *Conn) (bool, error) {
	k.hydrate()
	ep, err := k.desc(p, epfd)
	if err != nil {
		return false, err
	}
	if ep.Kind != FDEpoll {
		return false, fmt.Errorf("guest: fd %d is not an epoll instance", epfd)
	}
	k.M.Clock.Advance(k.M.Cost.EmulatedPoll)
	_, watched := slices.BinarySearch(ep.Watch, conn.DescID)
	return watched, nil
}

// AliasCount returns how many fds across all processes reference conn — the
// bookkeeping the dup/close hooks of §4.1 maintain.
func (k *Kernel) AliasCount(conn *Conn) int {
	k.hydrate()
	n := 0
	for _, p := range k.procs {
		for _, e := range p.FDs {
			if e.Desc == conn.DescID {
				n++
			}
		}
	}
	return n
}

// ResetCorruption clears accumulated corruption; used by baseline fuzzers'
// full server restarts (not by snapshot restores, which roll it back
// naturally via state restore).
func (k *Kernel) ResetCorruption() { k.MarkDirty(); k.corruption = 0 }

// ---- State serialization into guest memory ----

// storedLen returns the blob length in the header of the image in guest
// memory.
func (k *Kernel) storedLen() int {
	var hdr [4]byte
	if _, err := k.M.Mem.ReadAt(hdr[:], k.heapBase); err != nil {
		panic(fmt.Sprintf("guest: state header read: %v", err))
	}
	return int(binary.LittleEndian.Uint32(hdr[:]))
}

// syncToMemory serializes the kernel + target state into guest physical
// memory at heapBase: a 4-byte length header, then the blob. It is reachable
// only from boot and from flush — events mark the state dirty instead of
// calling it. The image is canonical: whatever a longer previous blob (its
// length is the header's, which stored holds: a fresh machine's memory reads
// 0, and a flush writes only a dirty kernel) left beyond the new one is
// zero-filled, so guest memory after a flush is a function of the state
// alone, not of the states flushed before it, and a run resumed from a
// snapshot ends byte-identical to the same run from the root.
func (k *Kernel) syncToMemory() {
	if k.M == nil {
		return
	}
	prev := k.stored
	k.enc.Reset()
	k.enc.U32(0) // header, patched below
	k.marshal(&k.enc)
	n := len(k.enc.buf) - 4
	binary.LittleEndian.PutUint32(k.enc.buf, uint32(n))
	if prev > n {
		k.enc.buf = slices.Grow(k.enc.buf, prev-n)[:4+prev]
		clear(k.enc.buf[4+n:])
	}
	if _, err := k.M.Mem.WriteAt(k.enc.buf, k.heapBase); err != nil {
		panic(fmt.Sprintf("guest: state write (%d bytes): %v — enlarge VM memory", n, err))
	}
	k.stored = n
}

// syncFromMemory re-reads kernel + target state from guest memory. Called
// via hydrate after a snapshot restore marked the struct state stale. No
// response sent before the restore is part of the restored state, so the send
// buffer starts over. A restore of the capture the kept image came from is
// served from it without reading memory (copyBack); any other is read and
// decoded, and its capture number kept once the decode succeeds.
func (k *Kernel) syncFromMemory() {
	k.sendBuf = k.sendBuf[:0]
	if k.capture != 0 && k.capture == k.restored {
		k.copyBack()
		return
	}
	n := k.storedLen()
	k.stored = n
	k.img = slices.Grow(k.img[:0], n)[:n]
	if _, err := k.M.Mem.ReadAt(k.img, k.heapBase+4); err != nil {
		panic(fmt.Sprintf("guest: state read: %v", err))
	}
	if err := k.decode(); err != nil {
		panic(fmt.Sprintf("guest: state decode: %v", err))
	}
	k.capture = k.restored
}

// hitHook, when set, runs at the end of every copyBack (see export_test.go).
var hitHook func(*Kernel)

// copyBack is a hydrate of the capture img was read from: guest memory holds
// img again, so the struct form is rebuilt from what decoding it left, the
// kernel's tables copied from base and the filesystem and target sections
// read from img on a reread reader, on which every Table copies back what it
// decoded to and the filesystem skips the section it read. Those bytes
// decoded before, so the reads cannot fail.
func (k *Kernel) copyBack() {
	k.hits++
	k.stored = len(k.img)
	k.kernelState.copyFrom(&k.base)
	r := &k.dec
	r.Reset(k.img)
	r.off, r.reread = k.baseLen, true
	k.loadRest(r)
	if err := r.Done(); err != nil {
		panic(fmt.Sprintf("guest: state copy-back: %v", err))
	}
	if hitHook != nil {
		hitHook(k)
	}
}

// decode replaces the struct form with the state image in img. The decoded
// Conn.Sent slices point into img, and once the kernel section decodes, what
// it decoded to becomes base; then the filesystem and target sections are
// decoded, every Table and the filesystem keeping what its section decoded
// to. The capture number is forgotten, and the caller that knows which
// capture the image is keeps it once the decode succeeds. After an error the
// struct form is a mix of states and unusable until a decode succeeds.
func (k *Kernel) decode() error {
	k.decodes++
	k.capture = 0
	r := &k.dec
	r.Reset(k.img)
	k.unmarshal(r)
	if r.err == nil {
		k.baseLen = r.off
		k.base.copyFrom(&k.kernelState)
		k.loadRest(r)
	}
	return r.Done()
}

// loadRest reads the sections that follow the kernel's, the filesystem's and
// the target's, and points the event environment at the restored init
// process.
func (k *Kernel) loadRest(r *StateReader) {
	k.FS.unmarshal(r)
	k.Target.LoadState(r)
	k.env.proc = k.initProc()
}

// marshal appends the state's image: the kernel's section, the filesystem's
// and the target's.
func (k *Kernel) marshal(w *StateWriter) {
	k.marshalKernel(w)
	k.FS.marshal(w)
	k.Target.SaveState(w)
}

// marshalKernel appends the kernel's own section; kernelLen is its length.
func (k *Kernel) marshalKernel(w *StateWriter) {
	b := w.buf
	b = appendInt(b, k.nextPID)
	b = appendInt(b, k.nextDesc)
	b = appendInt(b, k.nextConn)
	b = appendInt(b, k.corruption)
	b = appendInt(b, int(k.allocated))

	b = appendU32(b, uint32(len(k.descs)))
	for _, d := range k.descs {
		b = appendInt(b, d.ID)
		b = append(b, uint8(d.Kind))
		b = appendInt(b, d.ConnID)
		b = appendString(b, d.Path)
		b = appendInt(b, d.Refs)
		b = appendU32(b, uint32(len(d.Watch)))
		for _, id := range d.Watch {
			b = appendInt(b, id)
		}
	}

	b = appendU32(b, uint32(len(k.procs)))
	for _, p := range k.procs {
		b = appendInt(b, p.PID)
		b = appendInt(b, p.Parent)
		b = appendInt(b, p.nextFD)
		b = appendU32(b, uint32(len(p.FDs)))
		for _, e := range p.FDs {
			b = appendInt(appendInt(b, e.Num), e.Desc)
		}
	}

	b = appendU32(b, uint32(len(k.conns)))
	for _, c := range k.conns {
		b = appendInt(b, c.ID)
		b = appendString(b, c.Port.Proto)
		b = appendInt(b, c.Port.Num)
		b = appendInt(b, c.DescID)
		b = append(b, boolByte(c.Closed))
		b = appendU32(b, uint32(len(c.Sent)))
		for _, resp := range c.Sent {
			b = appendString(b, resp)
		}
	}

	w.buf = b
}

// Smallest encodings of one table entry, for StateReader.Count and
// kernelLen.
const (
	descBytes = 8 + 1 + 8 + 4 + 8 + 4
	procBytes = 8 + 8 + 8 + 4
	fdBytes   = 8 + 8
	connBytes = 8 + 4 + 8 + 8 + 1 + 4
)

// kernelLen returns the length of the section marshalKernel writes, without
// writing it: five counters and three table counts, and per entry its
// smallest encoding plus the bytes of its variable parts.
func (k *Kernel) kernelLen() int {
	n := 5*8 + 3*4
	for _, d := range k.descs {
		n += descBytes + len(d.Path) + 8*len(d.Watch)
	}
	for _, p := range k.procs {
		n += procBytes + fdBytes*len(p.FDs)
	}
	for _, c := range k.conns {
		n += connBytes + len(c.Port.Proto) + 4*len(c.Sent)
		for _, resp := range c.Sent {
			n += len(resp)
		}
	}
	return n
}

// unmarshal decodes the kernel's own section, refilling the tables in place
// (see extend): the objects and their FDs, Watch and Sent containers are the
// ones the state before the restore used, emptied. Ids must ascend below the id
// counter, as they do in every image marshal writes; that is what find
// relies on, and it makes marshal the inverse of a decode that succeeds.
func (k *Kernel) unmarshal(r *StateReader) {
	k.nextPID = r.Int()
	k.nextDesc = r.Int()
	k.nextConn = r.Int()
	k.corruption = r.Int()
	k.allocated = r.I64()

	k.descs = k.descs[:0]
	for i, prev, n := 0, 0, r.Count(descBytes); i < n && r.err == nil; i++ {
		var d *OpenDesc
		k.descs, d = extend(k.descs)
		*d = OpenDesc{ID: r.id(prev, k.nextDesc), Kind: FDKind(r.U8()), ConnID: r.Int(), Path: r.String(), Refs: r.Int(), Watch: r.appendInts(d.Watch[:0])}
		r.ascending(d.Watch)
		prev = d.ID
	}

	k.procs = k.procs[:0]
	for i, prev, n := 0, 0, r.Count(procBytes); i < n && r.err == nil; i++ {
		var p *Process
		k.procs, p = extend(k.procs)
		*p = Process{PID: r.id(prev, k.nextPID), Parent: r.Int(), nextFD: r.Int(), FDs: p.FDs[:0]}
		for j, fd, nf := 0, -1, r.Count(fdBytes); j < nf; j++ {
			fd = r.id(fd, p.nextFD)
			p.FDs = append(p.FDs, FD{Num: fd, Desc: r.Int()})
		}
		prev = p.PID
	}

	k.conns = k.conns[:0]
	for i, prev, n := 0, 0, r.Count(connBytes); i < n && r.err == nil; i++ {
		var c *Conn
		k.conns, c = extend(k.conns)
		*c = Conn{ID: r.id(prev, k.nextConn), Port: Port{Proto: internProto(r.View32()), Num: r.Int()}, DescID: r.Int(), Closed: r.Bool(), Sent: c.Sent[:0]}
		for j, ns := 0, r.Count(4); j < ns && r.err == nil; j++ {
			c.Sent = append(c.Sent, r.View32())
		}
		prev = c.ID
	}
}

// id reads an object id, which must lie above prev and below next.
func (r *StateReader) id(prev, next int) int {
	id := r.Int()
	if id <= prev || id >= next {
		r.Fail("statebuf: id %d outside (%d, %d)", id, prev, next)
	}
	return id
}

// internProto returns the Proto b spells, without allocating for the
// protocols the package defines.
func internProto(b []byte) Proto {
	for _, p := range [...]Proto{TCP, UDP, Unix} {
		if string(b) == string(p) {
			return p
		}
	}
	return Proto(b)
}
