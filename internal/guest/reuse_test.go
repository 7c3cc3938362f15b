package guest_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/guest"
	"repro/internal/spec"
	"repro/internal/vm"
)

// stateTargets are the targets the state round-trip tests run on, the four
// TestFlushPerExitMatchesFlushPerEvent uses.
var stateTargets = []string{"tinydtls", "dnsmasq", "bftpd", "exim"}

// image returns the state image in v's guest memory.
func (v *coherentVM) image(t *testing.T) []byte {
	t.Helper()
	img := make([]byte, v.blobLen(t))
	if _, err := v.M.Mem.ReadAt(img, stateHeap+4); err != nil {
		t.Fatal(err)
	}
	return img
}

// fsView renders what the filesystem API reports: every path and its size.
func fsView(k *guest.Kernel) string {
	var b bytes.Buffer
	for _, p := range k.FS.List() {
		n, err := k.FS.Size(p)
		fmt.Fprintf(&b, "%s %d %v\n", p, n, err)
	}
	return b.String()
}

// syscalls drives the kernel surface no seed input reaches, outside an
// event: connections of its own with traffic on them, an epoll instance
// watching them, dups, a fork (and every other round its exit), and files
// written and appended to. The epoll instances earlier calls left open watch
// the first new connection too, so a watch list a restore brought back
// changes. scale sets how much of each; round varies the paths and sizes.
func (v *coherentVM) syscalls(t *testing.T, round, scale int) {
	t.Helper()
	k := v.K
	k.MarkDirty()
	p := k.InitProcess()
	_, fd, err := k.NewConnection(v.Info.Port)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.FDs {
		k.EpollAdd(p, e.Num, fd) //nolint:errcheck // fails for every fd but an epoll instance's
	}
	epfd := k.EpollCreate(p)
	for i := 0; i < scale; i++ {
		c, fd, err := k.NewConnection(v.Info.Port)
		if err != nil {
			t.Fatal(err)
		}
		v.deliver(t, c, v.Seeds()[0].Ops[1].Data)
		if err := k.EpollAdd(p, epfd, fd); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Dup(p, fd); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if err := k.Close(p, fd); err != nil {
				t.Fatal(err)
			}
		}
	}
	if child := k.Fork(p); round%2 == 0 {
		k.Exit(child)
	}
	for i := 0; i < scale; i++ {
		path := fmt.Sprintf("/tmp/w%d", (round+i)%5)
		if err := k.FS.WriteFile(path, bytes.Repeat([]byte{byte(round)}, (round*137+i*911)%1500)); err != nil {
			t.Fatal(err)
		}
		if err := k.FS.AppendFile("/a/log", []byte(path)); err != nil {
			t.Fatal(err)
		}
	}
}

// fsMutators are the filesystem's mutators one at a time, so that each runs
// with the encoding of the metadata cached and has to invalidate it itself.
// The last is a write the 2 MiB disk cannot hold.
var fsMutators = []func(fs *guest.FS, path string) error{
	func(fs *guest.FS, path string) error { return fs.WriteFile(path, []byte("rewritten")) },
	func(fs *guest.FS, path string) error { return fs.AppendFile(path, []byte("appended")) },
	func(fs *guest.FS, path string) error {
		if fs.WriteFile(path, make([]byte, 4<<20)) == nil {
			return fmt.Errorf("a 4 MiB file fit the disk")
		}
		return nil
	},
}

// deliver hands c one packet; a target crash ends the packet, not the test.
func (v *coherentVM) deliver(t *testing.T, c *guest.Conn, data []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*guest.CrashError); !ok {
				panic(r)
			}
		}
	}()
	if err := v.K.Deliver(c, data); err != nil {
		t.Fatal(err)
	}
}

// warmUp leaves in v's kernel everything a long campaign can: tables, fd
// lists, watch lists, sent lists and file lists longer than any the checked
// sequence builds, hydrated from slots and from the root a few hundred
// times, and last a decode that failed half-way through the filesystem
// section of the largest of those states.
func (v *coherentVM) warmUp(t *testing.T) {
	t.Helper()
	mut := spec.NewMutator(v.Spec, rand.New(rand.NewSource(5)))
	seeds := v.Seeds()
	var largest []byte
	for round := 0; round < 300; round++ {
		if round%4 == 0 || !v.M.Mem.HasSlot(2) {
			if err := v.M.RestoreRoot(); err != nil {
				t.Fatal(err)
			}
		} else if err := v.M.RestoreIncrementalSlot(2); err != nil {
			t.Fatal(err)
		}
		v.conns = v.conns[:0]
		v.run(t, mut.Mutate(seeds[round%len(seeds)]).Ops)
		v.syscalls(t, round, 2+round%7)
		v.capture(t)
		if img := v.image(t); len(img) > len(largest) {
			largest = img
		}
		if round%4 == 0 {
			if err := v.M.TakeIncrementalSlot(2); err != nil {
				t.Fatal(err)
			}
		}
	}
	v.M.DropSlot(2)
	if err := v.M.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndex(largest, []byte("/tmp/w"))
	if cut < 0 {
		t.Fatal("no /tmp/w file in the largest warm-up image")
	}
	if err := v.K.DecodeImage(largest[:cut+3]); err == nil {
		t.Fatal("truncated image decoded")
	}
	if err := v.M.RestoreRoot(); err != nil { // marks the struct form stale again
		t.Fatal(err)
	}
}

// TestWarmKernelMatchesFreshKernel is the reuse half of the coherence
// contract: hydrate and flush recycle the kernel's objects, containers and
// the filesystem's cached encoding, and none of that may show. A freshly
// booted VM and one that went through warmUp run the same seeded sequence
// of events, syscalls, snapshots and restores, and at every capture both
// must hold byte-identical memory and the same dirty-page count. A third
// kernel, which shares no history with either, decodes the warm VM's image
// at every capture: it must re-encode to the same bytes and report the same
// filesystem as the warm kernel's struct form does, which is what catches a
// cached encoding that a mutator (or a failed decode) did not invalidate.
func TestWarmKernelMatchesFreshKernel(t *testing.T) {
	for _, target := range stateTargets {
		t.Run(target, func(t *testing.T) {
			fresh, warm, probe := launchCoherent(t, target, false), launchCoherent(t, target, false), launchCoherent(t, target, false)
			warm.warmUp(t)
			both := []*coherentVM{fresh, warm}
			same := func(when string) {
				t.Helper()
				fresh.capture(t)
				warm.capture(t)
				if !bytes.Equal(fresh.memory(t), warm.memory(t)) {
					t.Fatalf("%s: guest memory differs (blob %d fresh vs %d warm)", when, fresh.blobLen(t), warm.blobLen(t))
				}
				if a, b := fresh.M.Mem.DirtyCount(), warm.M.Mem.DirtyCount(); a != b {
					t.Fatalf("%s: dirty pages %d fresh vs %d warm", when, a, b)
				}
				img := warm.image(t)
				if err := probe.K.DecodeImage(img); err != nil {
					t.Fatalf("%s: image does not decode: %v", when, err)
				}
				if !bytes.Equal(probe.K.EncodeImage(), img) {
					t.Fatalf("%s: image does not re-encode to itself", when)
				}
				if got, want := fsView(warm.K), fsView(probe.K); got != want {
					t.Fatalf("%s: the kernel's filesystem\n%sis not the one its image holds\n%s", when, got, want)
				}
			}
			mut := spec.NewMutator(fresh.Spec, rand.New(rand.NewSource(29)))
			seeds := fresh.Seeds()
			for round := 0; round < 40; round++ {
				in := mut.Mutate(seeds[round%len(seeds)]).Clone() // held across MutateSuffix below
				if len(in.Ops) < 2 {
					continue
				}
				at := 1 + round%(len(in.Ops)-1)
				suffix := mut.MutateSuffix(in, at).Ops[at:]
				for _, v := range both {
					if err := v.M.RestoreRoot(); err != nil {
						t.Fatal(err)
					}
					v.conns = v.conns[:0]
				}
				if n := fresh.run(t, in.Ops[:at]); n != warm.run(t, in.Ops[:at]) {
					t.Fatalf("round %d: prefixes crashed at different ops", round)
				} else if n < at {
					same("crashed prefix")
					continue
				}
				same("prefix")
				for _, v := range both {
					v.syscalls(t, round, 1+round%3)
				}
				same("syscalls")
				for i, mutate := range fsMutators {
					for _, v := range both {
						v.K.MarkDirty()
						if err := mutate(v.K.FS, fmt.Sprintf("/tmp/w%d", round%5)); err != nil {
							t.Fatal(err)
						}
					}
					same(fmt.Sprintf("filesystem mutator %d", i))
				}
				nconns := len(fresh.conns)
				for _, v := range both {
					if err := v.M.TakeIncrementalSlot(1); err != nil {
						t.Fatal(err)
					}
					v.run(t, in.Ops[at:])
				}
				same("root run")
				for _, v := range both {
					if err := v.M.RestoreIncrementalSlot(1); err != nil {
						t.Fatal(err)
					}
					v.conns = v.conns[:nconns]
					v.run(t, suffix)
					if round%2 == 0 {
						v.syscalls(t, round+1, 1)
					}
				}
				same("slot run")
			}
		})
	}
}

var stubGreeting, stubPacket = []byte("220 ready"), []byte("hello")

// stub is a target with no state of its own: every allocation the cycles
// below make is the kernel's.
type stub struct{}

func (stub) Name() string                                        { return "stub" }
func (stub) Ports() []guest.Port                                 { return []guest.Port{{Proto: guest.TCP, Num: 9}} }
func (stub) Init(env *guest.Env) error                           { return env.FS().WriteFile("/etc/stub.conf", []byte("x")) }
func (stub) SaveState(*guest.StateWriter)                        {}
func (stub) LoadState(*guest.StateReader)                        {}
func (stub) OnConnect(env *guest.Env, c *guest.Conn)             { env.Send(c, stubGreeting) }
func (stub) OnPacket(env *guest.Env, c *guest.Conn, data []byte) { env.Send(c, data) }
func (stub) OnDisconnect(*guest.Env, *guest.Conn)                {}

// TestStateSyncSteadyStateAllocs pins the allocation budget of one guest
// state round trip — slot restore, hydrate, mark dirty, the end of the test
// case, and the discard at the next restore — once the kernel has been
// through it before, on both hydrate paths: restoring one slot again and
// again, every hydrate after the first is an identity hit; alternating
// between the slot and the root, every hydrate decodes, and the root's state,
// dirtied again, is flushed as a capture would flush it. The two halves of
// the repeated restore are also measured alone: the discard of a dirty state,
// which measures the target's section, and an identity hit after a restore
// with nothing dirty.
func TestStateSyncSteadyStateAllocs(t *testing.T) {
	const slot = 1
	roundTrip := func(m *vm.Machine, k *guest.Kernel, events func(), alternate bool) func() {
		return func() {
			if err := m.RestoreIncrementalSlot(slot); err != nil { // discards
				t.Fatal(err)
			}
			if k.Processes() == 0 { // hydrates
				t.Fatal("no process")
			}
			k.MarkDirty()
			if events != nil {
				events()
			}
			if err := m.Hypercall(vm.HcExecDone); err != nil {
				t.Fatal(err)
			}
			if alternate {
				if err := m.RestoreRoot(); err != nil {
					t.Fatal(err)
				}
				k.MarkDirty()
				if _, n := k.Flush(); n == 0 {
					t.Fatal("nothing flushed")
				}
			}
		}
	}
	measure := func(what string, m *vm.Machine, k *guest.Kernel, events func()) {
		t.Helper()
		for _, alternate := range []bool{false, true} {
			hits, decodes := k.Hydrates()
			n := testing.AllocsPerRun(100, roundTrip(m, k, events, alternate))
			if h, d := k.Hydrates(); alternate && d-decodes < 2*100 || !alternate && h-hits < 100 {
				t.Errorf("%s (alternating %v): %d hydrates copied back, %d decoded", what, alternate, h-hits, d-decodes)
			}
			if n != 0 {
				t.Errorf("%s (alternating %v): a state round trip allocates %v objects, want 0", what, alternate, n)
			}
		}
		if err := m.RestoreIncrementalSlot(slot); err != nil {
			t.Fatal(err)
		}
		discard := func() {
			k.MarkDirty()
			if _, n := m.GuestHooks.Discard(); n == 0 {
				t.Fatal("a dirty kernel discarded nothing")
			}
		}
		if n := testing.AllocsPerRun(100, discard); n != 0 {
			t.Errorf("%s: a measured discard allocates %v objects, want 0", what, n)
		}
		hits, _ := k.Hydrates()
		hit := func() {
			if err := m.RestoreIncrementalSlot(slot); err != nil {
				t.Fatal(err)
			}
			if k.Processes() == 0 {
				t.Fatal("no process")
			}
		}
		if n := testing.AllocsPerRun(100, hit); n != 0 {
			t.Errorf("%s: an identity hit allocates %v objects, want 0", what, n)
		}
		if h, _ := k.Hydrates(); h-hits < 100 {
			t.Errorf("%s: %d of 101 clean restores were identity hits", what, h-hits)
		}
	}

	// The kernel's own state: three conns with responses on them, an epoll
	// instance watching them, a dup, a forked child.
	m, k := bootStub(t)
	p := k.InitProcess()
	epfd := k.EpollCreate(p)
	for i := 0; i < 3; i++ {
		c, fd, err := k.NewConnection(guest.Port{Proto: guest.TCP, Num: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Deliver(c, stubPacket); err != nil {
			t.Fatal(err)
		}
		if err := k.EpollAdd(p, epfd, fd); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Dup(p, fd); err != nil {
			t.Fatal(err)
		}
	}
	k.Fork(p)
	if err := m.TakeIncrementalSlot(slot); err != nil {
		t.Fatal(err)
	}
	measure("stub target", m, k, nil)
	// A connection opened, used and closed in it adds nothing: the Conn, its
	// description and its fd reuse what the last round left, and the two
	// responses land in the kernel's send buffer.
	measure("stub target with a session", m, k, stubSession(t, k))

	// bftpd after a whole seed session, file upload included, and with the
	// connection still open: the decode finds the one string the target's
	// tables hold (the session's working directory) where the last one left it.
	v := launchCoherent(t, "bftpd", false)
	ops := v.Seeds()[1].Ops
	if n := v.run(t, ops[:len(ops)-1]); n != len(ops)-1 {
		t.Fatalf("seed session crashed at op %d", n)
	}
	if err := v.M.TakeIncrementalSlot(slot); err != nil {
		t.Fatal(err)
	}
	measure("bftpd", v.M, v.K, nil)
}

// bootStub boots the stub target in a small VM and takes the root snapshot.
func bootStub(t *testing.T) (*vm.Machine, *guest.Kernel) {
	t.Helper()
	m := vm.New(vm.Config{MemoryPages: 64, DiskSectors: 64})
	k, err := guest.NewKernel(m, stub{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Hypercall(vm.HcReady); err != nil {
		t.Fatal(err)
	}
	return m, k
}

// stubSession returns the events of one connection to the stub target:
// opened, used and closed.
func stubSession(t *testing.T, k *guest.Kernel) func() {
	return func() {
		c, _, err := k.NewConnection(guest.Port{Proto: guest.TCP, Num: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Deliver(c, stubPacket); err != nil {
			t.Fatal(err)
		}
		k.CloseConn(c)
	}
}

// TestSendBufferIsBoundedAcrossRestores pins what bounds the send buffer: it
// holds one test case's responses, not a campaign's, because hydrate starts
// it over. Ten thousand restore, session, exit cycles leave it the size the
// first few made it.
func TestSendBufferIsBoundedAcrossRestores(t *testing.T) {
	m, k := bootStub(t)
	session, settled := stubSession(t, k), 0
	for cycle := 0; cycle < 10000; cycle++ {
		if err := m.RestoreRoot(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= cycle%3; i++ {
			session()
		}
		if err := m.Hypercall(vm.HcExecDone); err != nil {
			t.Fatal(err)
		}
		if cycle == 8 {
			settled = k.SendBufferCap()
		}
	}
	if got := k.SendBufferCap(); settled == 0 || got != settled {
		t.Fatalf("send buffer holds %d bytes after 10000 cycles, %d after 9", got, settled)
	}
}

// TestHeldPointersSurviveUntilRestore is the lifetime rule of the package
// comment from the holder's side: a *Conn stays the connection it was, and
// its Sent slice stays what was sent, across events, VM exits and captures
// (which flush), until the next restore. It holds a connection whose
// responses were sent in the test case, and one whose responses a restore
// brought back by copying the kernel section it last decoded.
func TestHeldPointersSurviveUntilRestore(t *testing.T) {
	for _, copiedBack := range []bool{false, true} {
		t.Run(fmt.Sprintf("copied back %v", copiedBack), func(t *testing.T) {
			heldPointersSurviveUntilRestore(t, copiedBack)
		})
	}
}

func heldPointersSurviveUntilRestore(t *testing.T, copiedBack bool) {
	v := launchCoherent(t, "bftpd", false)
	ops := v.Seeds()[0].Ops
	v.run(t, ops[:2])
	c := v.conns[0]
	id := c.ID
	if copiedBack {
		if err := v.M.TakeIncrementalSlot(1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // a decode, then a copy-back of what it decoded
			if err := v.M.RestoreIncrementalSlot(1); err != nil {
				t.Fatal(err)
			}
			c = v.K.Conn(id)
			v.deliver(t, c, []byte("NOOP\r\n"))
		}
		if err := v.M.RestoreIncrementalSlot(1); err != nil {
			t.Fatal(err)
		}
		hits, _ := v.K.Hydrates()
		if c = v.K.Conn(id); len(c.Sent) == 0 {
			t.Fatal("the slot holds no responses")
		}
		if after, _ := v.K.Hydrates(); after != hits+1 {
			t.Fatal("the restore was not served by copy-back")
		}
		v.conns[0] = c
	}
	var held, want [][]byte // the responses as a holder has them, and what they read when sent
	check := func(when string) {
		t.Helper()
		for _, resp := range c.Sent[len(held):] {
			held, want = append(held, resp), append(want, bytes.Clone(resp))
		}
		if c.ID != id || v.K.Conn(id) != c {
			t.Fatalf("%s: conn %d became conn %d", when, id, c.ID)
		}
		for i := range held {
			if !bytes.Equal(held[i], want[i]) || !bytes.Equal(c.Sent[i], want[i]) {
				t.Fatalf("%s: response %d changed from %q to %q (held) and %q (Conn.Sent)", when, i, want[i], held[i], c.Sent[i])
			}
		}
	}
	check("sent")
	if err := v.M.Hypercall(vm.HcExecDone); err != nil {
		t.Fatal(err)
	}
	v.capture(t)
	v.syscalls(t, 1, 3)
	v.capture(t)
	check("after events, VM exits and captures")

	// Sending past the send buffer's capacity moves the buffer, not the
	// responses already in it.
	for moves := 0; moves < 3; {
		before := v.K.SendBufferCap()
		v.deliver(t, c, []byte("NOOP\r\n"))
		if v.K.SendBufferCap() != before {
			moves++
		}
		check("after the send buffer grew")
	}

	// The next restore ends the lifetime: hydrate starts the buffer over, and
	// the next test case's responses land where the held ones are.
	if err := v.M.RestoreRoot(); err != nil {
		t.Fatal(err)
	}
	v.conns = v.conns[:0]
	v.run(t, ops[:1])
	last := len(held) - 1
	for i := 0; bytes.Equal(held[last], want[last]); i++ {
		if i == len(held) {
			t.Fatalf("response %d still reads %q after a restore and %d responses sent since", last, held[last], i)
		}
		v.deliver(t, v.conns[0], []byte("junk\r\n"))
	}
}
