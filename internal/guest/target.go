package guest

import (
	"fmt"
	"time"

	"repro/internal/coverage"
)

// Target is a fuzz target: an event-driven network service (or client, or
// game) running inside the guest. Real Nyx-Net targets are unmodified
// binaries whose event loops block in hooked recv/epoll calls; here targets
// are written against the same semantics in event-handler form, which is
// how most real servers structure their loops anyway.
//
// All mutable state must round-trip through SaveState/LoadState, and must
// change only inside the handlers below: the kernel marks its state dirty
// before calling a handler, writes it into guest memory (SaveState) at the
// next snapshot take, and reads it back (LoadState) on the first access after a
// snapshot restore — which is what makes VM snapshots authoritative. Code
// that changes target state outside a handler calls Kernel.MarkDirty first
// (see the package comment for the full contract).
//
// A restore recycles the kernel's objects, so a target holds on to ids, not
// pointers: the *Conn (with its Sent slice, and every response in it) and the
// *Process a handler is given are valid until the next restore and no longer.
// LoadState works the same way on the target's side: it may refill the
// containers the target already has instead of allocating new ones, but it
// must leave no entry from before in any of them. State keyed by a connection
// or other small id goes in a Table, whose codec (StateWriter.IntTable and
// StringTable, and the StateReader methods of the same names) does exactly
// that; a Go map there would be sorted at every flush and rehashed at every
// hydrate.
type Target interface {
	// Name identifies the target (e.g. "lightftp").
	Name() string
	// Ports lists the attack surface the emulation layer hooks. It is
	// fixed: the kernel asks once, at boot.
	Ports() []Port
	// Init runs the startup routine (before the root snapshot).
	Init(env *Env) error
	// OnConnect is invoked when the fuzzer opens a connection.
	OnConnect(env *Env, c *Conn)
	// OnPacket is invoked for each delivered packet, with exact packet
	// boundaries preserved (§3.3). data is valid only for the call, and the
	// handler must not write it: state that keeps any of it keeps a copy.
	OnPacket(env *Env, c *Conn, data []byte)
	// OnDisconnect is invoked when a connection closes.
	OnDisconnect(env *Env, c *Conn)
	// SaveState serializes all mutable target state through w's methods
	// and changes none: a restore also runs it on a measuring writer, which
	// encodes nothing, to learn how long the image it discards is.
	SaveState(w *StateWriter)
	// LoadState restores state saved by SaveState.
	LoadState(r *StateReader)
}

// CrashKind classifies target crashes for triage and Table 1.
type CrashKind string

// Crash kinds observed across the target suite.
const (
	CrashSegfault       CrashKind = "segfault"
	CrashNullDeref      CrashKind = "null-deref"
	CrashHeapCorruption CrashKind = "heap-corruption"
	CrashMallocUnder    CrashKind = "malloc-underflow"
	CrashOOM            CrashKind = "oom"
	CrashOOMInternal    CrashKind = "oom-internal-limit"
)

// CrashError, the simulated analogue of a signal plus ASan report, is what
// Env.Crash panics with. Site is a constant; Msg may carry the input's values.
type CrashError struct {
	Kind CrashKind
	Site string
	Msg  string
}

// Error implements error.
func (c *CrashError) Error() string { return fmt.Sprintf("%s: %s", c.Kind, c.Msg) }

// RecoverCrash, deferred by an execution driver, stores in *crash the
// CrashError the target panicked with, and panics again with anything else.
func RecoverCrash(crash **CrashError) {
	if r := recover(); r != nil {
		var ok bool
		if *crash, ok = r.(*CrashError); !ok {
			panic(r)
		}
	}
}

// Env is the execution environment handed to target handlers: coverage
// probes, virtual CPU accounting, response emission, and the crash /
// allocator model.
type Env struct {
	k    *Kernel
	proc *Process

	trace *coverage.Trace
}

// Kernel returns the owning kernel (for fork/dup/epoll syscalls).
func (e *Env) Kernel() *Kernel { return e.k }

// FS returns the guest filesystem.
func (e *Env) FS() *FS { return e.k.FS }

// Process returns the current process context.
func (e *Env) Process() *Process { e.k.hydrate(); return e.proc }

// SetTrace installs the per-execution coverage trace. The execution driver
// calls this before each test case.
func (e *Env) SetTrace(t *coverage.Trace) { e.trace = t }

// Cov records execution of the basic block identified by loc.
func (e *Env) Cov(loc uint32) {
	if e.trace != nil {
		e.trace.Hit(loc)
	}
}

// Work charges d of virtual CPU time (the target "computing").
func (e *Env) Work(d time.Duration) { e.k.M.Clock.Advance(d) }

// Send emits a response on c (a hooked send(); cheap under emulation). The
// response is a copy of data in the kernel's send buffer, valid like the Conn
// until the next restore.
func (e *Env) Send(c *Conn, data []byte) {
	e.sent(c, append(e.k.sendBuf, data...))
}

// Sendf emits a formatted response on c.
func (e *Env) Sendf(c *Conn, format string, args ...any) {
	e.sent(c, fmt.Appendf(e.k.sendBuf, format, args...))
}

// sent records as c's next response what buf holds beyond the send buffer it
// was appended to, and makes buf the send buffer. The response's capacity is
// cut to its length, so appending to it cannot reach the one after it; when
// the append moved the buffer, earlier responses stay on the old array.
func (e *Env) sent(c *Conn, buf []byte) {
	e.k.M.Clock.Advance(e.k.M.Cost.EmulatedRecv)
	c.Sent = append(c.Sent, buf[len(e.k.sendBuf):len(buf):len(buf)])
	e.k.sendBuf = buf
}

// Crash aborts the current execution with a crash of kind at site format.
func (e *Env) Crash(kind CrashKind, format string, args ...any) {
	panic(&CrashError{Kind: kind, Site: format, Msg: fmt.Sprintf(format, args...)})
}

// Alloc models the target's allocator. Negative sizes reproduce the
// "negative amount of memory could be allocated" Lighttpd bug class
// (§5.5); allocations beyond a non-zero Kernel.AllocLimit raise an OOM.
// Both crash at site. No launch path sets a limit, so campaigns never
// reach the OOM that ProFuzzBench's docker limits cause (Table 1 note).
func (e *Env) Alloc(site string, size int64) {
	e.k.hydrate()
	if size < 0 {
		panic(&CrashError{Kind: CrashMallocUnder, Site: site, Msg: fmt.Sprintf("malloc(%d): integer underflow", size)})
	}
	e.k.allocated += size
	if e.k.AllocLimit > 0 && e.k.allocated > e.k.AllocLimit {
		panic(&CrashError{Kind: CrashOOM, Site: site, Msg: fmt.Sprintf("allocation of %d bytes exceeds container limit", size)})
	}
}

// Free returns size bytes to the allocator model.
func (e *Env) Free(size int64) {
	e.k.hydrate()
	e.k.allocated -= size
	if e.k.allocated < 0 {
		e.k.allocated = 0
	}
}

// CorruptMemory models a latent heap corruption bug. With ASan the crash
// surfaces immediately. Without it, corruption accumulates silently in
// target state; once enough has built up the process finally faults. This
// reproduces Table 1's dcmtk footnote: a snapshot fuzzer resets the
// corruption with every test case and therefore only sees the bug under
// ASan, while a persistent-process fuzzer like AFLnet accumulates state
// until it crashes even without ASan. Both crash at site.
func (e *Env) CorruptMemory(site string, amount int) {
	e.k.hydrate()
	if e.k.Asan {
		panic(&CrashError{Kind: CrashHeapCorruption, Site: site, Msg: "heap buffer overflow detected by ASan"})
	}
	e.k.corruption += amount
	if e.k.corruption >= CorruptionFaultThreshold {
		panic(&CrashError{Kind: CrashHeapCorruption, Site: site, Msg: fmt.Sprintf("delayed fault after %d accumulated corruptions", e.k.corruption)})
	}
}

// CorruptionFaultThreshold is how much silent corruption a process survives
// before faulting (without ASan).
const CorruptionFaultThreshold = 6

// NullDeref reports a null-pointer dereference (the Firefox IPC bug class,
// §5.7) in what, which is its fault site.
func (e *Env) NullDeref(what string) {
	panic(&CrashError{Kind: CrashNullDeref, Site: what, Msg: "null pointer dereference in " + what})
}
