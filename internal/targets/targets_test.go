package targets

import (
	"sort"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/coverage"
	"repro/internal/guest"
	"repro/internal/netemu"
	"repro/internal/spec"
)

// TestRegistryComplete checks the ProFuzzBench suite plus case studies are
// all registered.
func TestRegistryComplete(t *testing.T) {
	for _, name := range ProFuzzBench() {
		if _, ok := Lookup(name); !ok {
			t.Errorf("ProFuzzBench target %q not registered", name)
		}
	}
	for _, name := range []string{"echo", "mysql-client", "lighttpd", "firefox-ipc"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("case-study target %q not registered", name)
		}
	}
	if _, ok := Lookup("no-such-target"); ok {
		t.Error("lookup of unknown target should fail")
	}
	if len(Names()) < 17 {
		t.Errorf("registry has %d targets, want >= 17", len(Names()))
	}
}

// TestEveryTargetBootsAndRunsSeeds launches every registered target, runs
// its seeds, and checks basic invariants: seeds validate, produce coverage,
// and do not crash (crashes must be found by fuzzing, not handed out).
func TestEveryTargetBootsAndRunsSeeds(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			inst, err := Launch(name, LaunchConfig{})
			if err != nil {
				t.Fatalf("launch: %v", err)
			}
			seeds := inst.Seeds()
			if len(seeds) == 0 {
				t.Fatal("no seeds")
			}
			var tr coverage.Trace
			var virgin coverage.Virgin
			for i, seed := range seeds {
				if err := inst.Spec.Validate(seed); err != nil {
					t.Fatalf("seed %d invalid: %v", i, err)
				}
				res, err := inst.Agent.RunFromRoot(seed, &tr)
				if err != nil {
					t.Fatalf("seed %d: %v", i, err)
				}
				if res.Crashed {
					t.Fatalf("seed %d crashes the target: %v", i, res.Crash)
				}
				virgin.Merge(&tr)
			}
			if virgin.Edges() < 5 {
				t.Fatalf("seeds found only %d edges; instrumentation too sparse", virgin.Edges())
			}
		})
	}
}

// TestEveryTargetStateRoundTrip runs a seed, snapshots mid-input, perturbs,
// restores, and checks the target replays identically — the per-target
// variant of the guest-state identity property.
func TestEveryTargetStateRoundTrip(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			inst, err := Launch(name, LaunchConfig{})
			if err != nil {
				t.Fatal(err)
			}
			seed := inst.Seeds()[0].Clone()
			if len(seed.Ops) < 3 {
				t.Skip("seed too short to split")
			}
			seed.SnapshotAt = len(seed.Ops) - 1
			var tr coverage.Trace
			res, err := inst.Agent.RunCreatingSlot(seed, &tr, -1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Crashed {
				t.Fatalf("seed crashed: %v", res.Crash)
			}
			if !res.SnapshotTaken {
				t.Fatal("snapshot not taken")
			}
			// Re-run the suffix twice; identical coverage both times
			// proves the restore is exact.
			var tr1, tr2 coverage.Trace
			if _, err := inst.Agent.RunFromSnapshot(0, seed, &tr1); err != nil {
				t.Fatal(err)
			}
			if _, err := inst.Agent.RunFromSnapshot(0, seed, &tr2); err != nil {
				t.Fatal(err)
			}
			if tr1.CountEdges() != tr2.CountEdges() {
				t.Fatalf("suffix replay diverged: %d vs %d edges", tr1.CountEdges(), tr2.CountEdges())
			}
		})
	}
}

// runPackets drives raw payloads at a fresh instance and returns the result
// of the last packet.
func runPackets(t *testing.T, name string, asan bool, payloads ...[]byte) netemu.Result {
	t.Helper()
	inst, err := Launch(name, LaunchConfig{Asan: asan})
	if err != nil {
		t.Fatal(err)
	}
	return runSession(t, inst, inst.Info.Port, payloads...)
}

// runSession runs, from inst's root snapshot, one connection to port that
// sends payloads.
func runSession(t *testing.T, inst *Instance, port guest.Port, payloads ...[]byte) netemu.Result {
	t.Helper()
	conName := "connect_" + string(port.Proto) + "_" + itoa(port.Num)
	con, ok := inst.Spec.NodeByName(conName)
	if !ok {
		t.Fatalf("no node %s", conName)
	}
	pkt, _ := inst.Spec.NodeByName("packet")
	in := spec.NewInput(spec.Op{Node: con})
	for _, p := range payloads {
		in.Ops = append(in.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: p})
	}
	var tr coverage.Trace
	res, err := inst.Agent.RunFromRoot(in, &tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestDnsmasqLabelOverflowCrash(t *testing.T) {
	q := dnsQuery(1, "host")
	q[12] = 100 // label length 64..127: the bug window
	res := runPackets(t, "dnsmasq", false, q)
	if !res.Crashed || res.Crash.Kind != guest.CrashSegfault {
		t.Fatalf("expected segfault, got %+v", res)
	}
}

func TestLive555EscapeCrash(t *testing.T) {
	res := runPackets(t, "live555", false,
		[]byte("DESCRIBE rtsp://h/test.264%Z RTSP/1.0\r\nCSeq: 1\r\n\r\n"))
	if !res.Crashed {
		t.Fatal("truncated escape should crash")
	}
	// Valid escape must NOT crash.
	res = runPackets(t, "live555", false,
		[]byte("DESCRIBE rtsp://h/test%41.264 RTSP/1.0\r\nCSeq: 1\r\n\r\n"))
	if res.Crashed {
		t.Fatalf("valid escape crashed: %v", res.Crash)
	}
}

func TestTinydtlsCookieCrash(t *testing.T) {
	res := runPackets(t, "tinydtls", false, dtlsClientHello(nil), func() []byte {
		hello := dtlsClientHello([]byte{1, 2})
		// Claim a huge cookie length.
		hello[len(hello)-3] = 200
		return hello
	}())
	if !res.Crashed {
		t.Fatal("oversized cookie claim should crash")
	}
}

func TestEximDeepCrashRequiresFullEnvelope(t *testing.T) {
	full := [][]byte{
		[]byte("EHLO h\r\n"), []byte("MAIL FROM:<a@b>\r\n"), []byte("RCPT TO:<c@d>\r\n"),
		[]byte("DATA\r\n"), []byte(" leading continuation\r\n"),
	}
	res := runPackets(t, "exim", false, full...)
	if !res.Crashed {
		t.Fatal("full envelope + bad continuation should crash")
	}
	// Without DATA the same body line is harmless.
	res = runPackets(t, "exim", false, []byte("EHLO h\r\n"), []byte(" leading continuation\r\n"))
	if res.Crashed {
		t.Fatal("continuation outside DATA must not crash")
	}
}

func TestProftpdStaircase(t *testing.T) {
	steps := [][]byte{
		[]byte("USER a\r\n"), []byte("PASS b\r\n"),
		[]byte("SITE UTIME x\r\n"), []byte("SITE CHMOD x\r\n"),
		[]byte("SITE CHGRP x\r\n"), []byte("SITE SYMLINK x\r\n"),
		[]byte("MFMT 20260612 f\r\n"),
	}
	if res := runPackets(t, "proftpd", false, steps...); !res.Crashed {
		t.Fatal("full staircase should crash")
	}
	// Breaking the order must not crash.
	broken := [][]byte{
		steps[0], steps[1], steps[3], steps[2], steps[4], steps[5], steps[6],
	}
	if res := runPackets(t, "proftpd", false, broken...); res.Crashed {
		t.Fatal("out-of-order staircase must not crash")
	}
}

// TestDcmtkAsanBehavior reproduces Table 1's footnote: with ASan the
// corruption faults immediately; without it a single test case survives.
func TestDcmtkAsanBehavior(t *testing.T) {
	bad := dicomPDU(pduData, []byte{0, 0, 0, 2, 1, 0x02})
	// Declared length lies (larger than the body).
	bad[2], bad[3], bad[4], bad[5] = 0, 0, 0x40, 0

	if res := runPackets(t, "dcmtk", true, dicomAssociateRQ(), bad); !res.Crashed {
		t.Fatal("ASan build should crash immediately")
	}
	if res := runPackets(t, "dcmtk", false, dicomAssociateRQ(), bad); res.Crashed {
		t.Fatal("non-ASan build should survive one corruption")
	}

	// A persistent process accumulating corruptions eventually faults
	// even without ASan (what AFLnet's long-lived server does).
	inst, err := Launch("dcmtk", LaunchConfig{Asan: false})
	if err != nil {
		t.Fatal(err)
	}
	con, _ := inst.Spec.NodeByName("connect_tcp_104")
	pkt, _ := inst.Spec.NodeByName("packet")
	in := spec.NewInput(spec.Op{Node: con}, spec.Op{Node: pkt, Args: []uint16{0}, Data: dicomAssociateRQ()})
	for i := 0; i < 8; i++ {
		in.Ops = append(in.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: bad})
	}
	var tr coverage.Trace
	res, err := inst.Agent.RunFromRoot(in, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed || res.Crash.Kind != guest.CrashHeapCorruption {
		t.Fatalf("accumulated corruption should fault: %+v", res)
	}
}

func TestLighttpdAllocUnderflow(t *testing.T) {
	// Content-Length smaller than the body already received.
	res := runPackets(t, "lighttpd", false,
		[]byte("POST /f HTTP/1.1\r\nHost: h\r\nContent-Length: 1\r\n\r\nmuch-longer-body"))
	if !res.Crashed || res.Crash.Kind != guest.CrashMallocUnder {
		t.Fatalf("expected malloc underflow, got %+v", res)
	}
}

func TestMysqlClientOOBRead(t *testing.T) {
	// Greeting whose version string never terminates.
	p := []byte{10}
	p = append(p, []byte("8.0.36-unterminated")...)
	res := runPackets(t, "mysql-client", false, mysqlPacket(0, p))
	if !res.Crashed {
		t.Fatal("unterminated version string should crash the client parser")
	}
}

func TestFirefoxIPCNullDerefs(t *testing.T) {
	// Destroy-before-construct on the PContent socket.
	res := runPackets(t, "firefox-ipc", false, ipcMsg(1, 9, 0, nil))
	if !res.Crashed || res.Crash.Kind != guest.CrashNullDeref {
		t.Fatalf("expected null deref, got %+v", res)
	}
	if !strings.Contains(res.Crash.Msg, "ActorLifecycle") {
		t.Fatalf("wrong bug: %v", res.Crash)
	}
	// Shmem without handle.
	res = runPackets(t, "firefox-ipc", false, ipcMsg(2, 9, 0, []byte{1}))
	if !res.Crashed {
		t.Fatal("short shmem message should crash")
	}
}

func TestFirefoxIPCMultiConnection(t *testing.T) {
	inst, err := Launch("firefox-ipc", LaunchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seed := inst.Seeds()[0]
	var tr coverage.Trace
	res, err := inst.Agent.RunFromRoot(seed, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatalf("multi-connection seed crashed: %v", res.Crash)
	}
	if res.PacketsDelivered != 5 {
		t.Fatalf("delivered %d packets, want 5", res.PacketsDelivered)
	}
}

// TestPureFtpdLeakOnlyInPersistentMode: a snapshot fuzzer never accumulates
// the leak; a persistent session does.
func TestPureFtpdLeakOnlyInPersistentMode(t *testing.T) {
	inst, err := Launch("pure-ftpd", LaunchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	junk := []byte("XYZZY garbage\r\n")
	con, _ := inst.Spec.NodeByName("connect_tcp_2122")
	pkt, _ := inst.Spec.NodeByName("packet")
	small := spec.NewInput(spec.Op{Node: con},
		spec.Op{Node: pkt, Args: []uint16{0}, Data: junk},
		spec.Op{Node: pkt, Args: []uint16{0}, Data: junk})

	// Snapshot mode: hundreds of executions, each reset — never OOM.
	var tr coverage.Trace
	for i := 0; i < 100; i++ {
		res, err := inst.Agent.RunFromRoot(small, &tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashed {
			t.Fatalf("snapshot-mode exec %d crashed: %v", i, res.Crash)
		}
	}

	// Persistent mode: one giant session accumulates the leak.
	big := spec.NewInput(spec.Op{Node: con})
	for i := 0; i < 900; i++ {
		big.Ops = append(big.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: junk})
	}
	res, err := inst.Agent.RunFromRoot(big, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed || res.Crash.Kind != guest.CrashOOMInternal {
		t.Fatalf("persistent session should hit the internal limit, got %+v", res)
	}
}

func TestSplitCmd(t *testing.T) {
	for _, c := range []struct{ data, verb, arg string }{
		{"USER anon\r\n", "USER", "anon"},
		{"QUIT", "QUIT", ""},
		{"SITE CHMOD 644 f\r\n", "SITE", "CHMOD 644 f"},
		{"\r\n", "", ""},
	} {
		data := []byte(c.data)
		v, a := splitCmd(data)
		if string(v) != c.verb || string(a) != c.arg {
			t.Errorf("splitCmd(%q) = %q %q, want %q %q", c.data, v, a, c.verb, c.arg)
		}
		// Both halves are views of the packet, not copies.
		if len(v) > 0 && &v[0] != &data[0] || len(a) > 0 && &a[0] != &data[len(v)+1] {
			t.Errorf("splitCmd(%q) copied the packet", c.data)
		}
	}
	if n := testing.AllocsPerRun(100, func() { splitCmd([]byte("USER anon\r\n")) }); n != 0 {
		t.Errorf("splitCmd: %.0f allocations, want 0", n)
	}
}

// isASCII reports whether s has no byte >= 0x80.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// fold is foldVerb on a string, into a buffer of its own.
func fold(verb string) string {
	var buf [16]byte
	return string(foldVerb(&buf, []byte(verb)))
}

// checkVerbFold states foldVerb's contract for one verb: exactly
// strings.ToUpper's answer when that is pure ASCII, something that is not
// pure ASCII otherwise — so a lookup among ASCII verbs answers the same.
func checkVerbFold(t *testing.T, verb string) {
	t.Helper()
	got, want := fold(verb), strings.ToUpper(verb)
	if isASCII(want) {
		if got != want {
			t.Errorf("foldVerb(%q) = %q, want %q", verb, got, want)
		}
	} else if isASCII(got) {
		t.Errorf("foldVerb(%q) = %q is pure ASCII, strings.ToUpper gives %q", verb, got, want)
	}
}

func TestVerbFoldMatchesToUpper(t *testing.T) {
	for _, c := range []struct {
		verb   string
		allocs float64
	}{
		{"", 0}, {"USER", 0}, {"SITE", 0}, {"R2-D2", 0}, {"\x00\x7f", 0},
		{"user", 0}, {"UsEr", 0}, {"symlinK", 0}, {"mail9", 0},
		{"uſer", 0}, {"lıst", 0}, {"ſıte", 0}, {"Uſ\xff", 0}, {"ıé", 0},
		{"\xff", 0}, {"US\x80R", 0}, {"usér", 0}, {"USER\xc5", 0}, {"\xc5\xc5\xbf", 0},
		{"K", 0}, {"straße", 0}, {"ǆ", 0}, {"\xf0\x9f\x92\xa9quit", 0},
		{"sixteen-letters!", 0}, {"seventeen-letters", 1}, {"seventeen-letters\xff", 1},
	} {
		checkVerbFold(t, c.verb)
		verb := []byte(c.verb)
		var buf [16]byte
		if got := testing.AllocsPerRun(100, func() { foldVerb(&buf, verb) }); got != c.allocs {
			t.Errorf("foldVerb(%q): %.0f allocations, want %.0f", c.verb, got, c.allocs)
		}
	}
	if fold("uſer") != "USER" || fold("lıst") != "LIST" {
		t.Error("a verb spelled with 'ſ' or 'ı' is no longer known")
	}
	// The fold's shortcut rests on the Unicode tables: no other rune outside
	// ASCII upper-cases into it.
	for r := rune(utf8.RuneSelf); r <= unicode.MaxRune; r++ {
		if u := unicode.ToUpper(r); u < utf8.RuneSelf && r != 'ſ' && r != 'ı' {
			t.Errorf("%U upper-cases to %q: foldVerb must fold it too", r, u)
		}
	}
	// Every verb a target can know is what it folds to, and fits the buffer.
	for _, name := range []string{"lightftp", "bftpd", "proftpd", "pure-ftpd"} {
		info, _ := Lookup(name)
		srv := info.New().(*ftpServer)
		for verb := range srv.verbs {
			if fold(verb) != verb || fold(strings.ToLower(verb)) != verb || len(verb) > 16 {
				t.Errorf("%s: %s does not fold to itself", name, verb)
			}
		}
		for _, sub := range srv.cfg.siteCommands {
			if fold(strings.ToLower(sub)) != sub || len(sub) > 16 {
				t.Errorf("%s: SITE %s does not fold to itself", name, sub)
			}
		}
	}
}

// TestVerbPacketsAllocateNothing pins what the text-protocol targets pay to
// parse a command: nothing. A whole root run — connect, the packets, close —
// allocates nothing once the kernel has been through one, for a known verb, a
// lower-case one, an unknown one and a SITE subcommand, so the verb and its
// argument are compared where they lie in the packet.
func TestVerbPacketsAllocateNothing(t *testing.T) {
	for _, c := range []struct {
		target string
		msgs   []string
	}{
		{"proftpd", []string{"USER anon\r\n", "NOOP\r\n"}},
		{"proftpd", []string{"user anon\r\n", "type I\r\n"}},
		{"proftpd", []string{"XYZZY plugh\r\n", "\xffOO\r\n"}},
		{"proftpd", []string{"USER anon\r\n", "PASS x\r\n", "SITE CHMOD 644 f\r\n", "site utime 1 f\r\n", "SITE NOPE\r\n"}},
		{"exim", []string{"EHLO test\r\n", "MAIL FROM:<a@b>\r\n"}},
		{"exim", []string{"helo test\r\n", "mail FROM:<>\r\n", "rcpt TO:<c@d>\r\n"}},
		{"exim", []string{"XYZZY\r\n", "\xffELO\r\n"}},
	} {
		inst, err := Launch(c.target, LaunchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		in := seedSession(inst.Spec, inst.Info.Port, c.msgs...)
		var tr coverage.Trace
		run := func() {
			if res, err := inst.Agent.RunFromRoot(in, &tr); err != nil || res.Crashed || res.OpsExecuted != len(in.Ops) {
				t.Fatalf("%s %q: %+v, %v", c.target, c.msgs, res, err)
			}
		}
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("%s %q: a root run allocates %v objects, want 0", c.target, c.msgs, n)
		}
	}
}

// FuzzVerbFold checks foldVerb's contract for arbitrary bytes.
func FuzzVerbFold(f *testing.F) {
	for _, s := range []string{"", "USER", "user", "SiTe", "SYMLINK", "ehlo", "uſer", "lıst",
		"\xff", "\xc5", "\xc5\xbf\xc4", "UsEr\x80", "K"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, verb []byte) {
		checkVerbFold(t, string(verb))
	})
}

// TestFTPVerbRanksMatchSortedOrder pins the numbering of the per-verb
// coverage probes: a verb's rank is its position among the configuration's
// verbs in sorted order, which is what OnPacket used to work out by sorting
// the table for every packet. A rank that moved would move coverage ids.
func TestFTPVerbRanksMatchSortedOrder(t *testing.T) {
	sortedPosition := func(cmds map[string]int, verb string) int {
		verbs := make([]string, 0, len(cmds))
		for v := range cmds {
			verbs = append(verbs, v)
		}
		sort.Strings(verbs)
		for i, v := range verbs {
			if v == verb {
				return i
			}
		}
		return 0
	}
	for _, name := range []string{"lightftp", "bftpd", "proftpd", "pure-ftpd"} {
		info, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		srv := info.New().(*ftpServer)
		if len(srv.verbs) != len(srv.cfg.commands) || len(srv.verbs) == 0 {
			t.Fatalf("%s: %d ranked verbs for %d commands", name, len(srv.verbs), len(srv.cfg.commands))
		}
		for verb, budget := range srv.cfg.commands {
			if got, want := srv.verbs[verb], (ftpVerb{budget: budget, rank: sortedPosition(srv.cfg.commands, verb), name: verb}); got != want {
				t.Errorf("%s %s: %+v, want %+v", name, verb, got, want)
			}
		}
	}
}
