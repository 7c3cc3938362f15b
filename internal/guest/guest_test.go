package guest

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/coverage"
	"repro/internal/vm"
)

// echoTarget is a minimal stateful target used by the kernel tests: it
// echoes packets and counts them per connection.
type echoTarget struct {
	Counts   Table[int]
	Greeting string
	Loads    int // LoadState invocations, for hydration-laziness asserts
	Saves    int // SaveState invocations, for write-back-at-exit asserts
}

func newEchoTarget() *echoTarget {
	return &echoTarget{}
}

func (t *echoTarget) Name() string  { return "echo" }
func (t *echoTarget) Ports() []Port { return []Port{{TCP, 7}} }

func (t *echoTarget) Init(env *Env) error {
	t.Greeting = "hello"
	return env.FS().WriteFile("/etc/echo.conf", []byte("greeting=hello\n"))
}

func (t *echoTarget) OnConnect(env *Env, c *Conn) {
	env.Cov(1)
	env.Send(c, []byte(t.Greeting))
}

func (t *echoTarget) OnPacket(env *Env, c *Conn, data []byte) {
	env.Cov(2)
	t.Counts.Add(c.ID, 1)
	env.Send(c, data)
	if err := env.FS().AppendFile("/var/log/echo.log", data); err != nil {
		panic(err)
	}
}

func (t *echoTarget) OnDisconnect(env *Env, c *Conn) { env.Cov(3) }

func (t *echoTarget) SaveState(w *StateWriter) {
	t.Saves++
	w.String(t.Greeting)
	w.IntTable(&t.Counts)
}

func (t *echoTarget) LoadState(r *StateReader) {
	t.Loads++
	t.Greeting = r.String()
	r.IntTable(&t.Counts)
}

func bootEcho(t *testing.T) (*vm.Machine, *Kernel, *echoTarget) {
	t.Helper()
	m := vm.New(vm.Config{MemoryPages: 1024, DiskSectors: 4096})
	tgt := newEchoTarget()
	k, err := NewKernel(m, tgt)
	if err != nil {
		t.Fatal(err)
	}
	return m, k, tgt
}

func TestStatebufRoundTrip(t *testing.T) {
	var w StateWriter
	w.U8(7)
	w.U32(1 << 20)
	w.U64(1 << 40)
	w.I64(-42)
	w.Int(-7)
	w.F64(3.25)
	w.Bool(true)
	w.Bool(false)
	w.Bytes32([]byte("abc"))
	w.String("def")

	r := NewStateReader(w.Bytes())
	if r.U8() != 7 || r.U32() != 1<<20 || r.U64() != 1<<40 {
		t.Fatal("unsigned round trip failed")
	}
	if r.I64() != -42 || r.Int() != -7 || r.F64() != 3.25 {
		t.Fatal("signed/float round trip failed")
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round trip failed")
	}
	if string(r.View32()) != "abc" || r.String() != "def" {
		t.Fatal("bytes/string round trip failed")
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
}

func TestStatebufTruncation(t *testing.T) {
	var w StateWriter
	w.String("hello world")
	b := w.Bytes()
	r := NewStateReader(b[:5])
	_ = r.String()
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Sticky error: further reads return zero values, no panic.
	if r.U64() != 0 || r.Int() != 0 {
		t.Fatal("reads after error should return zero")
	}
	// A fixed-size read that comes up short fails the same way, and takes
	// the bytes that were there with it.
	for _, read := range []func(*StateReader) uint64{
		func(r *StateReader) uint64 { return r.U64() },
		func(r *StateReader) uint64 { return uint64(r.U32()) },
	} {
		r := NewStateReader([]byte{1, 2, 3})
		if read(r) != 0 || r.Err() == nil || r.U8() != 0 || r.Done() == nil {
			t.Fatalf("short fixed-size read: err %v", r.Err())
		}
	}
	if r := NewStateReader(nil); r.U8() != 0 || r.Err() == nil {
		t.Fatal("U8 of an empty stream succeeded")
	}
}

// Strings read through one builder lie one after the other in its buffer,
// and keep their bytes once it has outgrown them.
func TestStatebufStringToSharesBuilder(t *testing.T) {
	var w StateWriter
	for _, s := range []string{"abc", "defg", "hijkl"} {
		w.String(s)
	}
	r := NewStateReader(w.Bytes())
	var sb strings.Builder
	sb.Grow(7)
	a, b := r.StringTo(&sb), r.StringTo(&sb)
	c := r.StringTo(&sb) // past the capacity: the builder grows
	if a != "abc" || b != "defg" || c != "hijkl" || r.Done() != nil {
		t.Fatalf("read %q %q %q, err %v", a, b, c, r.Err())
	}
	if unsafe.StringData(b) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(a)), 3)) {
		t.Fatal("two strings that fit one builder's capacity do not share its buffer")
	}
	if s := NewStateReader([]byte{9, 0, 0, 0, 'x'}).StringTo(&sb); s != "" || sb.Len() != 12 {
		t.Fatalf("a truncated string read %q and left the builder at %d bytes", s, sb.Len())
	}
}

// Property: arbitrary byte/string payloads round-trip.
func TestStatebufRoundTripProperty(t *testing.T) {
	f := func(b []byte, s string, v int64) bool {
		var w StateWriter
		w.Bytes32(b)
		w.String(s)
		w.I64(v)
		r := NewStateReader(w.Bytes())
		return bytes.Equal(r.View32(), b) && r.String() == s && r.I64() == v && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFSReadWrite(t *testing.T) {
	m := vm.New(vm.Config{MemoryPages: 64, DiskSectors: 1024})
	fs := NewFS(m.Disk)
	data := bytes.Repeat([]byte("0123456789"), 200) // spans several sectors
	if err := fs.WriteFile("/a", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fs round trip mismatch")
	}
	if sz, _ := fs.Size("/a"); sz != int64(len(data)) {
		t.Fatalf("size = %d want %d", sz, len(data))
	}
	if fs.Exists("/b") {
		t.Fatal("a file never written exists")
	}
	if _, err := fs.ReadFile("/b"); err == nil {
		t.Fatal("expected error reading a missing file")
	}
}

func TestFSDiskFull(t *testing.T) {
	m := vm.New(vm.Config{MemoryPages: 64, DiskSectors: 4})
	fs := NewFS(m.Disk)
	if err := fs.WriteFile("/big", make([]byte, 10*512)); err == nil {
		t.Fatal("expected disk-full error")
	}
}

func TestKernelBootAndConnect(t *testing.T) {
	_, k, _ := bootEcho(t)
	c, fd, err := k.NewConnection(Port{TCP, 7})
	if err != nil {
		t.Fatal(err)
	}
	if fd < 3 {
		t.Fatalf("fd = %d, expected >= 3", fd)
	}
	if len(c.Sent) != 1 || string(c.Sent[0]) != "hello" {
		t.Fatalf("greeting not sent: %v", c.Sent)
	}
	if _, _, err := k.NewConnection(Port{TCP, 99}); err == nil {
		t.Fatal("expected error connecting to unserved port")
	}
}

func TestDeliverAndState(t *testing.T) {
	_, k, tgt := bootEcho(t)
	c, _, err := k.NewConnection(Port{TCP, 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := k.Deliver(c, []byte(fmt.Sprintf("pkt%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if tgt.Counts.Get(c.ID) != 3 {
		t.Fatalf("count = %d want 3", tgt.Counts.Get(c.ID))
	}
	log, err := k.FS.ReadFile("/var/log/echo.log")
	if err != nil {
		t.Fatal(err)
	}
	if string(log) != "pkt0pkt1pkt2" {
		t.Fatalf("log = %q", log)
	}
}

// The central integration property: a VM snapshot restores ALL logical
// state — target counters, fd tables, connections, and file system.
func TestSnapshotRestoresAllGuestState(t *testing.T) {
	m, k, tgt := bootEcho(t)
	m.TakeRoot()

	c, _, err := k.NewConnection(Port{TCP, 7})
	if err != nil {
		t.Fatal(err)
	}
	k.Deliver(c, []byte("prefix1"))
	k.Deliver(c, []byte("prefix2"))
	if err := m.TakeIncrementalSlot(0); err != nil {
		t.Fatal(err)
	}
	connID := c.ID

	// Fuzz case: more packets, more files, a fork.
	k.Deliver(c, []byte("case1"))
	k.Fork(k.InitProcess())
	k.FS.WriteFile("/tmp/scratch", []byte("junk"))

	if err := m.RestoreIncrementalSlot(0); err != nil {
		t.Fatal(err)
	}
	// Restores hydrate lazily: the struct form of the state is decoded on
	// first kernel access. This test asserts on target structs directly,
	// so force the decode the way any accessor would.
	k.hydrate()
	if tgt.Counts.Get(connID) != 2 {
		t.Fatalf("target state not restored: count = %d want 2", tgt.Counts.Get(connID))
	}
	if k.Processes() != 1 {
		t.Fatalf("forked process should be gone: %d procs", k.Processes())
	}
	if k.FS.Exists("/tmp/scratch") {
		t.Fatal("scratch file should be gone after restore")
	}
	log, err := k.FS.ReadFile("/var/log/echo.log")
	if err != nil {
		t.Fatal(err)
	}
	if string(log) != "prefix1prefix2" {
		t.Fatalf("log = %q, want prefix only", log)
	}

	// Root restore drops even the prefix and the connection.
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	k.hydrate()
	if tgt.Counts.Len() != 0 {
		t.Fatalf("counts should be empty at root: %v", tgt.Counts)
	}
	if k.Conn(connID) != nil {
		t.Fatal("connection should not exist at root")
	}
	if k.FS.Exists("/var/log/echo.log") {
		t.Fatal("log should not exist at root")
	}
	if !k.FS.Exists("/etc/echo.conf") {
		t.Fatal("boot-time config must survive root restore")
	}
}

func TestDupCloseAliasing(t *testing.T) {
	_, k, _ := bootEcho(t)
	c, fd, err := k.NewConnection(Port{TCP, 7})
	if err != nil {
		t.Fatal(err)
	}
	p := k.InitProcess()
	fd2, err := k.Dup(p, fd)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.AliasCount(c); got != 2 {
		t.Fatalf("alias count = %d want 2", got)
	}
	if err := k.Close(p, fd); err != nil {
		t.Fatal(err)
	}
	if c.Closed {
		t.Fatal("conn must stay open while an alias exists")
	}
	if err := k.Close(p, fd2); err != nil {
		t.Fatal(err)
	}
	if !c.Closed {
		t.Fatal("conn must close when last alias closes")
	}
	if err := k.Close(p, fd2); err == nil {
		t.Fatal("double close should error")
	}
}

func TestForkInheritsDescriptions(t *testing.T) {
	_, k, _ := bootEcho(t)
	c, fd, err := k.NewConnection(Port{TCP, 7})
	if err != nil {
		t.Fatal(err)
	}
	parent := k.InitProcess()
	child := k.Fork(parent)
	if got := k.AliasCount(c); got != 2 {
		t.Fatalf("alias count after fork = %d want 2", got)
	}
	// Parent closes; child's inherited fd keeps the connection alive —
	// the classic forking-server pattern §3.3 calls out.
	if err := k.Close(parent, fd); err != nil {
		t.Fatal(err)
	}
	if c.Closed {
		t.Fatal("child alias should keep conn open")
	}
	k.Exit(child)
	if !c.Closed {
		t.Fatal("conn should close when child exits")
	}
}

func TestEpollEmulation(t *testing.T) {
	_, k, _ := bootEcho(t)
	c, fd, err := k.NewConnection(Port{TCP, 7})
	if err != nil {
		t.Fatal(err)
	}
	p := k.InitProcess()
	epfd := k.EpollCreate(p)
	ready, err := k.EpollReady(p, epfd, c)
	if err != nil {
		t.Fatal(err)
	}
	if ready {
		t.Fatal("conn not registered yet")
	}
	if err := k.EpollAdd(p, epfd, fd); err != nil {
		t.Fatal(err)
	}
	ready, err = k.EpollReady(p, epfd, c)
	if err != nil {
		t.Fatal(err)
	}
	if !ready {
		t.Fatal("conn should be watched")
	}
	if err := k.EpollAdd(p, fd, fd); err == nil {
		t.Fatal("EpollAdd on non-epoll fd should fail")
	}
}

func TestCrashModel(t *testing.T) {
	_, k, _ := bootEcho(t)
	env := k.Env()

	catch := func(f func()) (ce *CrashError) {
		defer func() {
			if r := recover(); r != nil {
				ce = r.(*CrashError)
			}
		}()
		f()
		return nil
	}

	// A helper's crash is at its caller's site.
	if ce := catch(func() { env.Alloc("len", -5) }); ce == nil || ce.Kind != CrashMallocUnder || ce.Site != "len" {
		t.Fatalf("expected malloc underflow at len, got %+v", ce)
	}
	k.AllocLimit = 1000
	if ce := catch(func() { env.Alloc("buf", 2000) }); ce == nil || ce.Kind != CrashOOM || ce.Site != "buf" {
		t.Fatalf("expected OOM at buf, got %+v", ce)
	}

	// Without ASan, corruption accumulates before faulting.
	k2Machine := vm.New(vm.Config{MemoryPages: 1024, DiskSectors: 1024})
	k2, err := NewKernel(k2Machine, newEchoTarget())
	if err != nil {
		t.Fatal(err)
	}
	env2 := k2.Env()
	var crashed *CrashError
	n := 0
	for crashed == nil && n < 100 {
		crashed = catch(func() { env2.CorruptMemory("w", 1) })
		n++
	}
	if crashed == nil || crashed.Kind != CrashHeapCorruption || crashed.Site != "w" {
		t.Fatalf("expected delayed corruption crash at w, got %+v", crashed)
	}
	if n < 2 {
		t.Fatalf("corruption should be delayed without ASan (faulted after %d)", n)
	}

	// With ASan the first corruption faults.
	k3Machine := vm.New(vm.Config{MemoryPages: 1024, DiskSectors: 1024})
	k3, err := NewKernel(k3Machine, newEchoTarget())
	if err != nil {
		t.Fatal(err)
	}
	k3.Asan = true
	if ce := catch(func() { k3.Env().CorruptMemory("w", 1) }); ce == nil || ce.Kind != CrashHeapCorruption || ce.Site != "w" {
		t.Fatalf("expected immediate ASan crash at w, got %+v", ce)
	}
}

func TestCorruptionResetBySnapshotRestore(t *testing.T) {
	m, k, _ := bootEcho(t)
	m.TakeRoot()
	func() {
		defer func() { recover() }()
		k.Env().CorruptMemory("w", 3)
	}()
	if k.Corruption() != 3 {
		t.Fatalf("corruption = %d want 3", k.Corruption())
	}
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	if k.Corruption() != 0 {
		t.Fatalf("snapshot restore must reset corruption, got %d", k.Corruption())
	}
}

func TestCoverageTraceWiring(t *testing.T) {
	_, k, _ := bootEcho(t)
	var tr coverage.Trace
	k.Env().SetTrace(&tr)
	c, _, err := k.NewConnection(Port{TCP, 7})
	if err != nil {
		t.Fatal(err)
	}
	k.Deliver(c, []byte("x"))
	if tr.CountEdges() == 0 {
		t.Fatal("expected coverage edges from instrumented target")
	}
}

func TestDeliverOnClosedConn(t *testing.T) {
	_, k, _ := bootEcho(t)
	c, _, err := k.NewConnection(Port{TCP, 7})
	if err != nil {
		t.Fatal(err)
	}
	k.CloseConn(c)
	if err := k.Deliver(c, []byte("x")); err == nil {
		t.Fatal("expected error delivering to closed conn")
	}
}

// The restore hot path must not scale with the guest-state blob: a restore
// only marks the struct state stale, and the decode runs exactly once on
// the first subsequent access — back-to-back restores decode nothing.
func TestRestoreHydratesLazily(t *testing.T) {
	m, k, tgt := bootEcho(t)
	m.TakeRoot()
	c, _, err := k.NewConnection(Port{TCP, 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Deliver(c, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := m.TakeIncrementalSlot(0); err != nil {
		t.Fatal(err)
	}

	base := tgt.Loads
	for i := 0; i < 5; i++ {
		if err := m.RestoreIncrementalSlot(0); err != nil {
			t.Fatal(err)
		}
	}
	if tgt.Loads != base {
		t.Fatalf("restores decoded eagerly: %d decodes for 5 untouched restores", tgt.Loads-base)
	}

	// The first access pays exactly one decode...
	if got := k.Processes(); got != 1 {
		t.Fatalf("processes = %d want 1", got)
	}
	if tgt.Loads != base+1 {
		t.Fatalf("loads = %d want %d after first access", tgt.Loads, base+1)
	}
	// ...and further accesses are free until the next restore.
	if k.Conn(c.ID) == nil {
		t.Fatal("restored connection missing")
	}
	if !k.FS.Exists("/var/log/echo.log") {
		t.Fatal("restored log missing")
	}
	if tgt.Loads != base+1 {
		t.Fatalf("loads = %d want %d after repeat access", tgt.Loads, base+1)
	}

	if err := m.RestoreIncrementalSlot(0); err != nil {
		t.Fatal(err)
	}
	if got := k.Corruption(); got != 0 {
		t.Fatalf("corruption = %d want 0", got)
	}
	if tgt.Loads != base+2 {
		t.Fatalf("loads = %d want %d after re-restore", tgt.Loads, base+2)
	}
}

// find scans a table of up to 8 from the back and bisects a longer one; it
// must answer as a linear search does — the first position whose id is not
// below the one asked for, and whether it is that id — for every id in [0,
// next+1], on tables of 0–20 entries whose ids ascend with gaps. Each table
// shape is searched as built and, as conns, descs and procs, after a kernel
// decoded an image holding it (DecodeImage), through Conn and lookup too.
func TestFindMatchesLinearSearch(t *testing.T) {
	model := func(ids []int, id int) (int, bool) {
		for i, x := range ids {
			if x >= id {
				return i, x == id
			}
		}
		return len(ids), false
	}
	check := func(what string, ids []int, next int, find func(id int) (int, bool)) {
		t.Helper()
		for id := 0; id <= next+1; id++ {
			i, ok := find(id)
			if wi, wok := model(ids, id); i != wi || ok != wok {
				t.Fatalf("%s %v: find(%d) = %d, %v, want %d, %v", what, ids, id, i, ok, wi, wok)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 20; n++ {
		for trial := 0; trial < 8; trial++ {
			ids, next := make([]int, n), 1
			for i := range ids {
				next += rng.Intn(3) * (trial % 4) // trial 0 has no gaps
				ids[i] = next
				next++
			}
			conns := make([]*Conn, n)
			descs := make([]*OpenDesc, n)
			procs := make([]*Process, n)
			for i, id := range ids {
				conns[i] = &Conn{ID: id, Port: Port{TCP, 7}}
				descs[i] = &OpenDesc{ID: id, Kind: FDFile}
				procs[i] = &Process{PID: id}
			}
			check("built", ids, next, func(id int) (int, bool) { return find(conns, id) })

			_, k, _ := bootEcho(t)
			k.conns, k.descs, k.procs = conns, descs, procs
			k.nextConn, k.nextDesc, k.nextPID = next, next, next
			_, dec, _ := bootEcho(t)
			if err := dec.DecodeImage(k.EncodeImage()); err != nil {
				t.Fatalf("%v: %v", ids, err)
			}
			check("decoded conns", ids, next, func(id int) (int, bool) { return find(dec.conns, id) })
			check("decoded descs", ids, next, func(id int) (int, bool) { return find(dec.descs, id) })
			check("decoded procs", ids, next, func(id int) (int, bool) { return find(dec.procs, id) })
			for id := 0; id <= next+1; id++ {
				_, ok := model(ids, id)
				if c := dec.Conn(id); (c != nil) != ok || c != nil && c.ID != id {
					t.Fatalf("%v: Conn(%d) = %v", ids, id, c)
				}
				if d := lookup(dec.descs, id); (d != nil) != ok || d != nil && d.ID != id {
					t.Fatalf("%v: desc lookup(%d) = %v", ids, id, d)
				}
			}
		}
	}
}

// A flush writes the image without reading guest memory: the length of the
// blob it may have to zero-fill past is the one the kernel keeps (stored),
// not the header's.
func TestFlushReadsNoGuestMemory(t *testing.T) {
	m, k, _ := bootEcho(t)
	if err := m.Hypercall(vm.HcReady); err != nil {
		t.Fatal(err)
	}
	flush := func(when string) {
		t.Helper()
		reads := m.Mem.Stats().Reads
		if _, n := k.Flush(); n == 0 || m.Mem.Stats().Reads != reads {
			t.Fatalf("%s: a flush of %d bytes read guest memory %d times", when, n, m.Mem.Stats().Reads-reads)
		}
		if got := memoryImage(t, k); !bytes.Equal(got, k.EncodeImage()) || len(got) != k.stored {
			t.Fatalf("%s: after the flush guest memory holds %d bytes (stored %d) that are not the state's image", when, len(got), k.stored)
		}
	}
	c, _, err := k.NewConnection(Port{TCP, 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range []string{"a", "bc"} {
		if err := k.Deliver(c, []byte(data)); err != nil {
			t.Fatal(err)
		}
		flush("after a delivery")
	}
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := k.NewConnection(Port{TCP, 7}); err != nil { // hydrates the root
		t.Fatal(err)
	}
	flush("after a restore")
}

// memoryImage returns the state image in k's guest memory.
func memoryImage(t *testing.T, k *Kernel) []byte {
	t.Helper()
	img := make([]byte, k.storedLen())
	if _, err := k.M.Mem.ReadAt(img, k.heapBase+4); err != nil {
		t.Fatal(err)
	}
	return img
}

// Events only mark the state dirty, and VM exits that take no snapshot write
// nothing; the one serialization happens at the next capture, and a capture
// with nothing dirty writes nothing.
func TestEventsWriteBackAtVMExit(t *testing.T) {
	m, k, tgt := bootEcho(t)
	if err := m.Hypercall(vm.HcReady); err != nil {
		t.Fatal(err)
	}
	base := tgt.Saves
	c, _, err := k.NewConnection(Port{TCP, 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"a", "b", "c"} {
		if err := k.Deliver(c, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	k.CloseConn(c)
	for _, hc := range []vm.Hypercall{vm.HcExecDone, vm.HcPanic, vm.HcReleaseSnapshot} {
		if err := m.Hypercall(hc); err != nil {
			t.Fatal(err)
		}
	}
	if tgt.Saves != base || m.Mem.DirtyCount() != 0 {
		t.Fatalf("events or VM exits serialized: %d saves, %d dirty pages before any capture", tgt.Saves-base, m.Mem.DirtyCount())
	}
	if err := m.Hypercall(vm.HcSnapshot); err != nil {
		t.Fatal(err)
	}
	if tgt.Saves != base+1 || m.Mem.SlotPages(0) == 0 {
		t.Fatalf("capture after 5 events: %d saves (want 1), %d pages captured", tgt.Saves-base, m.Mem.SlotPages(0))
	}
	if !bytes.Equal(memoryImage(t, k), k.EncodeImage()) {
		t.Fatal("the captured image is not the state's")
	}
	base = tgt.Saves // EncodeImage saved once more
	// Clean: further exits, a capture and a restore serialize nothing.
	if err := m.Hypercall(vm.HcExecDone); err != nil {
		t.Fatal(err)
	}
	if err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	if tgt.Saves != base {
		t.Fatalf("clean state was serialized: %d saves, want none", tgt.Saves-base)
	}
	// A rejected event mutates nothing and dirties nothing.
	if err := k.Deliver(k.Conn(c.ID), []byte("late")); err == nil {
		t.Fatal("delivery on a closed connection succeeded")
	}
	if err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	if tgt.Saves != base {
		t.Fatal("a rejected delivery marked the state dirty")
	}
}

// A restore that fails does so before the machine calls the discard hook: the
// dirty state is neither dropped nor marked stale, and the next capture still
// writes it.
func TestFailedRestoreSkipsDiscard(t *testing.T) {
	m, k, tgt := bootEcho(t)
	c, _, err := k.NewConnection(Port{TCP, 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreRoot(); err != vm.ErrNotReady {
		t.Fatalf("root restore before the root snapshot: %v", err)
	}
	if err := m.Hypercall(vm.HcReady); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memoryImage(t, k), k.EncodeImage()) || k.Conn(c.ID) == nil {
		t.Fatal("the root snapshot misses the connection opened before the failed restore")
	}
	if err := k.Deliver(c, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	saves := tgt.Saves
	if err := m.RestoreIncrementalSlot(7); err == nil {
		t.Fatal("restore of a slot never taken succeeded")
	}
	if !k.dirty || k.stale || tgt.Saves != saves {
		t.Fatalf("the failed restore touched the guest: dirty %v, stale %v, %d saves", k.dirty, k.stale, tgt.Saves-saves)
	}
	if err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	if tgt.Counts.Get(c.ID) != 1 || !bytes.Equal(memoryImage(t, k), k.EncodeImage()) {
		t.Fatal("the capture after the failed restore does not hold the delivery before it")
	}
}

// A restore discards struct state that was still dirty: the machine has the
// guest drop it unwritten and counts (and charges) the pages a flush would
// have written, resets memory, and the next access hydrates the snapshot's
// state, not the discarded one.
func TestRestoreDiscardsDirtyState(t *testing.T) {
	m, k, tgt := bootEcho(t)
	m.TakeRoot()
	c, _, err := k.NewConnection(Port{TCP, 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Deliver(c, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := m.TakeIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := k.Deliver(k.Conn(c.ID), bytes.Repeat([]byte("discarded"), 600)); err != nil {
			t.Fatal(err)
		}
	}
	tgt.Greeting = "poked"
	k.MarkDirty()

	before := m.Mem.Stats().PagesReset
	if err := m.RestoreIncrementalSlot(1); err != nil {
		t.Fatal(err)
	}
	// Three 5 KiB responses grew the blob by pages the restore had to reset.
	if reset := m.Mem.Stats().PagesReset - before; reset < 3 {
		t.Fatalf("restore reset %d pages; the discarded state's pages were not counted", reset)
	}
	if got := len(k.Conn(c.ID).Sent); got != 2 { // greeting + one echo
		t.Fatalf("conn has %d responses after restore, want the snapshot's 2", got)
	}
	if tgt.Counts.Get(c.ID) != 1 || tgt.Greeting != "hello" {
		t.Fatalf("target state after restore: counts %v greeting %q, want the snapshot's", tgt.Counts, tgt.Greeting)
	}

	if err := k.Deliver(k.Conn(c.ID), []byte("again")); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	if k.Conn(c.ID) != nil || tgt.Counts.Len() != 0 {
		t.Fatalf("root restore kept discarded state: conn %v counts %v", k.Conn(c.ID), tgt.Counts)
	}
}
