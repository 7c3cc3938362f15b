package targets

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/guest"
	"repro/internal/spec"
)

// ftpConfig parameterizes the FTP server family. ProFuzzBench contains
// four FTP daemons of very different size and depth (lightftp, bftpd,
// proftpd, pure-ftpd); they share the protocol skeleton but differ in
// command surface, extra state, processing cost and seeded bugs.
type ftpConfig struct {
	name string
	ns   uint32
	port guest.Port

	// commands maps supported verbs to a per-verb branch budget: how
	// many argument-dependent sub-branches the handler models. Bigger
	// servers (proftpd) have bigger budgets.
	commands map[string]int

	// siteCommands are SITE subcommands (proftpd's deep surface).
	siteCommands []string

	// perPacket is the virtual CPU cost per message.
	perPacket time.Duration

	// deepBug, when set, arms the Nyx-only crash: a five-step command
	// staircase after authentication, each step only reachable from the
	// previous one within a single session (Table 1: proftpd).
	deepBug bool

	// leakPerJunk, when > 0, leaks this many bytes per unparseable
	// command *without ever freeing them* across sessions; once
	// leakLimit is exceeded the server aborts (pure-ftpd's internal OOM
	// limit, the "*" footnote of Table 1). Snapshot fuzzers reset the
	// leak with every test case and never see it.
	leakPerJunk int64
	leakLimit   int64
}

// ftpServer is the shared implementation.
type ftpServer struct {
	cfg ftpConfig

	// verbs is cfg.commands with each verb's rank in sorted order beside
	// its budget and its name; the rank numbers the verb's coverage probes.
	// greeting is the 220 banner every connection opens with, formatted once.
	verbs    map[string]ftpVerb
	greeting []byte

	// Per-connection state.
	Auth   guest.Table[int]    // 0=new, 1=USER given, 2=authed
	CWD    guest.Table[string] // current directory
	RnFr   guest.Table[string] // pending RNFR
	Mode   guest.Table[int]    // TYPE: 0=ascii 1=binary
	Stair  guest.Table[int]    // deep-bug staircase progress
	Leaked int64               // accumulated leak (survives connections!)
	Files  int                 // files stored this boot
}

type ftpVerb struct {
	budget, rank int
	name         string
}

func newFTP(cfg ftpConfig) *ftpServer {
	names := make([]string, 0, len(cfg.commands))
	for verb := range cfg.commands {
		names = append(names, verb)
	}
	sort.Strings(names)
	verbs := make(map[string]ftpVerb, len(names))
	for rank, verb := range names {
		verbs[verb] = ftpVerb{budget: cfg.commands[verb], rank: rank, name: verb}
	}
	return &ftpServer{cfg: cfg, verbs: verbs, greeting: fmt.Appendf(nil, "220 %s ready\r\n", cfg.name)}
}

func (t *ftpServer) Name() string        { return t.cfg.name }
func (t *ftpServer) Ports() []guest.Port { return []guest.Port{t.cfg.port} }

func (t *ftpServer) Init(env *guest.Env) error {
	// Startup: parse config, create the FTP root.
	if err := env.FS().WriteFile("/etc/"+t.cfg.name+".conf", []byte("anon=yes\nroot=/srv/ftp\n")); err != nil {
		return err
	}
	if err := env.FS().WriteFile("/srv/ftp/readme.txt", []byte("welcome to "+t.cfg.name)); err != nil {
		return err
	}
	return nil
}

func (t *ftpServer) OnConnect(env *guest.Env, c *guest.Conn) {
	env.Cov(loc(t.cfg.ns, 1))
	t.Auth.Set(c.ID, 0)
	t.CWD.Set(c.ID, "/")
	env.Send(c, t.greeting)
}

func (t *ftpServer) OnDisconnect(env *guest.Env, c *guest.Conn) {
	env.Cov(loc(t.cfg.ns, 2))
	t.Auth.Delete(c.ID)
	t.CWD.Delete(c.ID)
	t.RnFr.Delete(c.ID)
	t.Mode.Delete(c.ID)
	t.Stair.Delete(c.ID)
}

func (t *ftpServer) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	env.Work(t.cfg.perPacket)
	verb, arg := splitCmd(data)
	var buf [16]byte
	v, known := t.verbs[string(foldVerb(&buf, verb))]
	if !known {
		// Unparseable command: the 500 path, plus pure-ftpd's slow leak.
		covByte(env, t.cfg.ns, 3, firstByte(data))
		if t.cfg.leakPerJunk > 0 {
			t.Leaked += t.cfg.leakPerJunk
			env.Alloc("ftp: unknown-command reply buffer", t.cfg.leakPerJunk)
			if t.Leaked > t.cfg.leakLimit {
				env.Crash(guest.CrashOOMInternal,
					"%s: internal allocation limit exceeded (%d bytes leaked)", t.cfg.name, t.Leaked)
			}
		}
		env.Send(c, []byte("500 unknown command\r\n"))
		return
	}

	// Per-verb probe plus argument-shape probes scaled by the verb's
	// branch budget, modelling parser depth.
	covToken(env, t.cfg.ns, 10, v.rank)
	covClass(env, t.cfg.ns, 11+uint32(v.rank), len(arg))
	if v.budget > 2 && len(arg) > 0 {
		covByte(env, t.cfg.ns, 100+uint32(v.rank), arg[0])
	}

	auth := t.Auth.Get(c.ID)
	switch v.name {
	case "USER":
		env.Cov(loc(t.cfg.ns, 20))
		t.Auth.Set(c.ID, 1)
		env.Send(c, []byte("331 password required\r\n"))
	case "PASS":
		if auth == 1 {
			env.Cov(loc(t.cfg.ns, 21))
			t.Auth.Set(c.ID, 2)
			env.Send(c, []byte("230 logged in\r\n"))
		} else {
			env.Cov(loc(t.cfg.ns, 22))
			env.Send(c, []byte("503 login with USER first\r\n"))
		}
	case "QUIT":
		env.Cov(loc(t.cfg.ns, 23))
		env.Send(c, []byte("221 bye\r\n"))
	case "SYST":
		env.Cov(loc(t.cfg.ns, 24))
		env.Send(c, []byte("215 UNIX Type: L8\r\n"))
	case "FEAT":
		env.Cov(loc(t.cfg.ns, 25))
		env.Sendf(c, "211-Features\r\n SIZE\r\n MDTM\r\n211 End\r\n")
	case "NOOP":
		env.Cov(loc(t.cfg.ns, 26))
		env.Send(c, []byte("200 ok\r\n"))
	case "TYPE":
		if string(arg) == "I" {
			t.Mode.Set(c.ID, 1)
		} else {
			t.Mode.Set(c.ID, 0)
		}
		covByte(env, t.cfg.ns, 27, firstByte(arg))
		env.Send(c, []byte("200 type set\r\n"))
	default:
		if auth != 2 {
			env.Cov(loc(t.cfg.ns, 28))
			env.Send(c, []byte("530 not logged in\r\n"))
			return
		}
		t.handleAuthed(env, c, v.name, arg)
	}
}

// handleAuthed implements the post-login surface for the known verb verb.
func (t *ftpServer) handleAuthed(env *guest.Env, c *guest.Conn, verb string, arg []byte) {
	ns := t.cfg.ns
	switch verb {
	case "CWD":
		env.Cov(loc(ns, 30))
		if bytes.Contains(arg, []byte("..")) {
			env.Cov(loc(ns, 31)) // traversal check path
		}
		t.CWD.Set(c.ID, string(arg))
		env.Send(c, []byte("250 ok\r\n"))
	case "PWD":
		env.Cov(loc(ns, 32))
		env.Sendf(c, "257 \"%s\"\r\n", t.CWD.Get(c.ID))
	case "LIST", "NLST":
		env.Cov(loc(ns, 33))
		env.Work(t.cfg.perPacket) // directory walk is extra work
		env.Sendf(c, "150 listing\r\n226 done (%d files)\r\n", t.Files)
	case "STOR", "APPE":
		env.Cov(loc(ns, 34))
		t.Files++
		path := "/srv/ftp/upload" + fmt.Sprint(t.Files%8)
		env.FS().WriteFile(path, arg) //nolint:errcheck // scratch write
		env.Send(c, []byte("226 stored\r\n"))
	case "RETR":
		env.Cov(loc(ns, 35))
		if _, err := env.FS().ReadFile("/srv/ftp/" + string(arg)); err != nil {
			env.Cov(loc(ns, 36))
			env.Send(c, []byte("550 not found\r\n"))
			return
		}
		env.Send(c, []byte("226 sent\r\n"))
	case "DELE", "RMD":
		env.Cov(loc(ns, 37))
		env.Send(c, []byte("250 removed\r\n"))
	case "MKD":
		env.Cov(loc(ns, 38))
		env.Send(c, []byte("257 created\r\n"))
	case "RNFR":
		env.Cov(loc(ns, 39))
		t.RnFr.Set(c.ID, string(arg))
		env.Send(c, []byte("350 ready\r\n"))
	case "RNTO":
		if t.RnFr.Get(c.ID) == "" {
			env.Cov(loc(ns, 40))
			env.Send(c, []byte("503 RNFR first\r\n"))
			return
		}
		env.Cov(loc(ns, 41))
		t.RnFr.Set(c.ID, "")
		env.Send(c, []byte("250 renamed\r\n"))
	case "SITE":
		sub, subArg := splitCmd(arg)
		var buf [16]byte
		sub = foldVerb(&buf, sub)
		idx := -1
		for i, s := range t.cfg.siteCommands {
			if s == string(sub) {
				idx = i
				break
			}
		}
		if idx < 0 {
			env.Cov(loc(ns, 42))
			env.Send(c, []byte("504 SITE param not implemented\r\n"))
			return
		}
		covToken(env, ns, 43, idx)
		covClass(env, ns, 44, len(subArg))
		t.advanceStair(env, c, sub, subArg)
		env.Send(c, []byte("200 SITE ok\r\n"))
	case "MDTM", "SIZE", "MFMT":
		env.Cov(loc(ns, 45))
		covClass(env, ns, 46, len(arg))
		if verb == "MFMT" && t.cfg.deepBug && t.Stair.Get(c.ID) >= 4 {
			// Final staircase step: MFMT after the full SITE sequence.
			env.Cov(loc(ns, 47))
			env.Crash(guest.CrashSegfault,
				"%s: MFMT facts parser reads freed pathname after SITE sequence", t.cfg.name)
		}
		env.Send(c, []byte("213 20260612\r\n"))
	case "REST", "PORT", "PASV", "EPSV":
		env.Cov(loc(ns, 48))
		covClass(env, ns, 49, len(arg))
		env.Send(c, []byte("227 entering mode\r\n"))
	default:
		env.Cov(loc(ns, 50))
		env.Send(c, []byte("502 not implemented\r\n"))
	}
}

// advanceStair walks the deep-bug staircase: UTIME -> CHMOD -> CHGRP ->
// SYMLINK, each step valid only directly after the previous one, in one
// session. Only a fuzzer that rapidly explores suffix extensions of deep
// queue entries climbs all steps (this is what incremental snapshots buy).
func (t *ftpServer) advanceStair(env *guest.Env, c *guest.Conn, sub, arg []byte) {
	if !t.cfg.deepBug {
		return
	}
	steps := []string{"UTIME", "CHMOD", "CHGRP", "SYMLINK"}
	cur := t.Stair.Get(c.ID)
	if cur < len(steps) && string(sub) == steps[cur] && len(arg) > 0 {
		t.Stair.Set(c.ID, cur+1)
		env.Cov(loc(t.cfg.ns, 60+uint32(cur)))
	} else if len(sub) > 0 && cur > 0 {
		t.Stair.Set(c.ID, 0) // wrong step resets the sequence
	}
}

func (t *ftpServer) SaveState(w *guest.StateWriter) {
	w.IntTable(&t.Auth)
	w.StringTable(&t.CWD)
	w.StringTable(&t.RnFr)
	w.IntTable(&t.Mode)
	w.IntTable(&t.Stair)
	w.I64(t.Leaked)
	w.Int(t.Files)
}

func (t *ftpServer) LoadState(r *guest.StateReader) {
	r.IntTable(&t.Auth)
	r.StringTable(&t.CWD)
	r.StringTable(&t.RnFr)
	r.IntTable(&t.Mode)
	r.IntTable(&t.Stair)
	t.Leaked = r.I64()
	t.Files = r.Int()
}

func firstByte(b []byte) byte {
	if len(b) == 0 {
		return 0
	}
	return b[0]
}

// ftpDict is the shared FTP token dictionary.
func ftpDict(extra ...string) [][]byte {
	base := []string{
		"USER anon\r\n", "PASS x\r\n", "QUIT\r\n", "SYST\r\n", "FEAT\r\n",
		"TYPE I\r\n", "CWD /\r\n", "PWD\r\n", "LIST\r\n", "STOR f\r\n",
		"RETR readme.txt\r\n", "DELE f\r\n", "MKD d\r\n", "RNFR a\r\n",
		"RNTO b\r\n", "NOOP\r\n", "PASV\r\n", "REST 0\r\n",
	}
	return tokens(append(base, extra...)...)
}

func ftpSeeds(port guest.Port) func(s *spec.Spec) []*spec.Input {
	return func(s *spec.Spec) []*spec.Input {
		return []*spec.Input{
			seedSession(s, port, "USER anon\r\n", "PASS x\r\n", "SYST\r\n", "QUIT\r\n"),
			seedSession(s, port, "USER anon\r\n", "PASS x\r\n", "CWD /\r\n", "LIST\r\n", "STOR f\r\n", "QUIT\r\n"),
		}
	}
}

func init() {
	basicFTP := map[string]int{
		"USER": 1, "PASS": 1, "QUIT": 1, "SYST": 1, "NOOP": 1, "TYPE": 2,
		"CWD": 3, "PWD": 1, "LIST": 2, "RETR": 3, "STOR": 3, "DELE": 2,
		"MKD": 2, "RNFR": 2, "RNTO": 2, "PASV": 1, "PORT": 3, "REST": 2,
	}

	lightPort := guest.Port{Proto: guest.TCP, Num: 2200}
	Register(&Info{
		Name: "lightftp",
		Port: lightPort,
		New: func() guest.Target {
			// lightftp: the smallest server — a reduced command set.
			cmds := map[string]int{
				"USER": 1, "PASS": 1, "QUIT": 1, "SYST": 1, "NOOP": 1,
				"TYPE": 2, "CWD": 2, "PWD": 1, "LIST": 1, "RETR": 2,
				"STOR": 2, "PASV": 1, "PORT": 2, "FEAT": 1,
			}
			return newFTP(ftpConfig{
				name: "lightftp", ns: 1, port: lightPort,
				commands: cmds, perPacket: 18 * time.Microsecond,
			})
		},
		Seeds: ftpSeeds(lightPort), Dict: ftpDict(),
		Startup: 45 * time.Millisecond, Cleanup: 30 * time.Millisecond,
		ServerWait:   60 * time.Millisecond,
		DesockCompat: true,
	})

	bftpdPort := guest.Port{Proto: guest.TCP, Num: 2121}
	Register(&Info{
		Name: "bftpd",
		Port: bftpdPort,
		New: func() guest.Target {
			cmds := map[string]int{}
			for k, v := range basicFTP {
				cmds[k] = v
			}
			cmds["FEAT"] = 1
			cmds["APPE"] = 2
			return newFTP(ftpConfig{
				name: "bftpd", ns: 2, port: bftpdPort,
				commands: cmds, perPacket: 25 * time.Microsecond,
			})
		},
		Seeds: ftpSeeds(bftpdPort), Dict: ftpDict("APPE f\r\n"),
		Startup: 60 * time.Millisecond, Cleanup: 40 * time.Millisecond,
		ServerWait:   80 * time.Millisecond,
		DesockCompat: false,
	})

	proftpdPort := guest.Port{Proto: guest.TCP, Num: 21}
	Register(&Info{
		Name: "proftpd",
		Port: proftpdPort,
		New: func() guest.Target {
			// proftpd: the big one — full surface, SITE subcommands and
			// the deep staircase bug only Nyx-Net finds (Table 1).
			cmds := map[string]int{}
			for k, v := range basicFTP {
				cmds[k] = v + 2
			}
			for _, k := range []string{"FEAT", "APPE", "SITE", "MDTM", "SIZE", "MFMT", "NLST", "RMD", "EPSV"} {
				cmds[k] = 4
			}
			return newFTP(ftpConfig{
				name: "proftpd", ns: 3, port: proftpdPort,
				commands:     cmds,
				siteCommands: []string{"CHMOD", "CHGRP", "UTIME", "SYMLINK", "MKDIR", "RMDIR"},
				perPacket:    55 * time.Microsecond,
				deepBug:      true,
			})
		},
		Seeds: func(s *spec.Spec) []*spec.Input {
			return []*spec.Input{
				seedSession(s, proftpdPort, "USER anon\r\n", "PASS x\r\n", "SYST\r\n", "QUIT\r\n"),
				seedSession(s, proftpdPort, "USER anon\r\n", "PASS x\r\n", "SITE CHMOD 644 f\r\n", "MDTM f\r\n", "QUIT\r\n"),
				seedSession(s, proftpdPort, "USER anon\r\n", "PASS x\r\n", "SITE UTIME 202606 f\r\n", "SITE CHMOD 644 f\r\n", "SIZE f\r\n", "QUIT\r\n"),
			}
		},
		Dict: ftpDict("SITE CHMOD 644 f\r\n", "SITE UTIME 202606 f\r\n", "SITE CHGRP g f\r\n",
			"SITE SYMLINK a b\r\n", "SITE MKDIR d\r\n", "MFMT 20260612 f\r\n", "MDTM f\r\n", "SIZE f\r\n"),
		Startup: 180 * time.Millisecond, Cleanup: 120 * time.Millisecond,
		ServerWait:   150 * time.Millisecond,
		DesockCompat: false,
	})

	purePort := guest.Port{Proto: guest.TCP, Num: 2122}
	Register(&Info{
		Name: "pure-ftpd",
		Port: purePort,
		New: func() guest.Target {
			cmds := map[string]int{}
			for k, v := range basicFTP {
				cmds[k] = v + 1
			}
			cmds["FEAT"] = 2
			cmds["MDTM"] = 2
			cmds["SIZE"] = 2
			return newFTP(ftpConfig{
				name: "pure-ftpd", ns: 4, port: purePort,
				commands:  cmds,
				perPacket: 30 * time.Microsecond,
				// The internal allocation limit (Table 1 "*"): junk
				// commands leak, and only a long-lived process without
				// state resets accumulates enough to abort.
				leakPerJunk: 64 << 10,
				leakLimit:   48 << 20,
			})
		},
		Seeds: ftpSeeds(purePort), Dict: ftpDict("MDTM f\r\n", "SIZE f\r\n"),
		Startup: 70 * time.Millisecond, Cleanup: 50 * time.Millisecond,
		ServerWait:   90 * time.Millisecond,
		DesockCompat: false,
	})
}
