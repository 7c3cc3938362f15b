package targets

import (
	"bytes"
	"strings"
	"time"

	"repro/internal/guest"
	"repro/internal/spec"
)

// eximServer models exim: a large SMTP daemon with a deep envelope state
// machine (HELO -> MAIL -> RCPT -> DATA -> body). The crash Table 1 credits
// only to Nyx-Net hides at the end of the full envelope sequence: a header
// continuation bug reachable only after DATA, i.e. five correct protocol
// steps deep — exactly the territory incremental snapshots open up.
type eximServer struct {
	// Per-connection envelope state.
	Phase  guest.Table[int] // 0=new 1=helo 2=mail 3=rcpt 4=data
	Rcpts  guest.Table[int]
	Bodies guest.Table[int] // body lines received while in DATA
	Mails  int
}

const eximNS = 5

func (t *eximServer) Name() string        { return "exim" }
func (t *eximServer) Ports() []guest.Port { return []guest.Port{{Proto: guest.TCP, Num: 25}} }

func (t *eximServer) Init(env *guest.Env) error {
	return env.FS().WriteFile("/etc/exim.conf", []byte("primary_hostname = mail.test\n"))
}

func (t *eximServer) OnConnect(env *guest.Env, c *guest.Conn) {
	env.Cov(loc(eximNS, 1))
	t.Phase.Set(c.ID, 0)
	env.Send(c, []byte("220 mail.test ESMTP\r\n"))
}

func (t *eximServer) OnDisconnect(env *guest.Env, c *guest.Conn) {
	t.Phase.Delete(c.ID)
	t.Rcpts.Delete(c.ID)
	t.Bodies.Delete(c.ID)
}

func (t *eximServer) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	env.Work(90 * time.Microsecond) // exim is heavyweight per message
	phase := t.Phase.Get(c.ID)

	// In DATA phase, every packet is a body chunk until the dot.
	if phase == 4 {
		t.handleBody(env, c, data)
		return
	}

	verb, arg := splitCmd(data)
	var buf [16]byte
	verb = foldVerb(&buf, verb)
	switch string(verb) {
	case "HELO", "EHLO":
		covToken(env, eximNS, 10, int(verb[0]))
		covClass(env, eximNS, 11, len(arg))
		t.Phase.Set(c.ID, 1)
		if string(verb) == "EHLO" {
			env.Send(c, []byte("250-mail.test\r\n250-SIZE 52428800\r\n250-PIPELINING\r\n250 HELP\r\n"))
		} else {
			env.Send(c, []byte("250 mail.test\r\n"))
		}
	case "MAIL":
		if phase < 1 {
			env.Cov(loc(eximNS, 12))
			env.Send(c, []byte("503 HELO first\r\n"))
			return
		}
		env.Cov(loc(eximNS, 13))
		covClass(env, eximNS, 14, len(arg))
		if bytes.Contains(arg, []byte("<>")) {
			env.Cov(loc(eximNS, 15)) // bounce sender path
		}
		if bytes.IndexByte(arg, '@') >= 0 {
			env.Cov(loc(eximNS, 16))
		}
		t.Phase.Set(c.ID, 2)
		env.Send(c, []byte("250 OK\r\n"))
	case "RCPT":
		if phase < 2 {
			env.Cov(loc(eximNS, 17))
			env.Send(c, []byte("503 MAIL first\r\n"))
			return
		}
		env.Cov(loc(eximNS, 18))
		covByte(env, eximNS, 19, firstByte(arg))
		if t.Rcpts.Add(c.ID, 1) > 4 {
			env.Cov(loc(eximNS, 20)) // too-many-recipients path
			env.Send(c, []byte("452 too many recipients\r\n"))
			return
		}
		t.Phase.Set(c.ID, 3)
		env.Send(c, []byte("250 accepted\r\n"))
	case "DATA":
		if phase != 3 {
			env.Cov(loc(eximNS, 21))
			env.Send(c, []byte("503 RCPT first\r\n"))
			return
		}
		env.Cov(loc(eximNS, 22))
		t.Phase.Set(c.ID, 4)
		t.Bodies.Set(c.ID, 0)
		env.Send(c, []byte("354 end with .\r\n"))
	case "RSET":
		env.Cov(loc(eximNS, 23))
		t.Phase.Set(c.ID, 1)
		t.Rcpts.Set(c.ID, 0)
		env.Send(c, []byte("250 reset\r\n"))
	case "VRFY", "EXPN":
		env.Cov(loc(eximNS, 24))
		covClass(env, eximNS, 25, len(arg))
		env.Send(c, []byte("252 cannot verify\r\n"))
	case "NOOP":
		env.Cov(loc(eximNS, 26))
		env.Send(c, []byte("250 OK\r\n"))
	case "QUIT":
		env.Cov(loc(eximNS, 27))
		env.Send(c, []byte("221 bye\r\n"))
	case "HELP":
		env.Cov(loc(eximNS, 28))
		env.Send(c, []byte("214 commands: HELO MAIL RCPT DATA\r\n"))
	default:
		covByte(env, eximNS, 29, firstByte(data))
		env.Send(c, []byte("500 unrecognized\r\n"))
	}
}

// handleBody processes message body chunks inside DATA.
func (t *eximServer) handleBody(env *guest.Env, c *guest.Conn, data []byte) {
	t.Bodies.Add(c.ID, 1)
	s := string(data)
	if s == ".\r\n" || s == "." {
		env.Cov(loc(eximNS, 40))
		t.Mails++
		t.Phase.Set(c.ID, 1)
		env.FS().AppendFile("/var/spool/exim/input", data) //nolint:errcheck
		env.Send(c, []byte("250 message accepted\r\n"))
		return
	}
	// Header parsing branches (first body lines are headers).
	if t.Bodies.Get(c.ID) <= 3 {
		if i := strings.IndexByte(s, ':'); i > 0 {
			covClass(env, eximNS, 41, i) // header name length classes
			name := strings.ToLower(s[:i])
			for hi, h := range []string{"from", "to", "subject", "received", "content-type", "date"} {
				if name == h {
					covToken(env, eximNS, 42, hi)
				}
			}
		} else if strings.HasPrefix(s, " ") || strings.HasPrefix(s, "\t") {
			// Header continuation line as the FIRST header line: the
			// deep bug. Only reachable 5 protocol steps into a session.
			env.Cov(loc(eximNS, 43))
			if t.Bodies.Get(c.ID) == 1 && len(s) > 2 {
				env.Crash(guest.CrashSegfault,
					"exim: header continuation without preceding header dereferences NULL chain")
			}
		} else {
			covByte(env, eximNS, 44, firstByte(data))
		}
	}
	if strings.HasPrefix(s, "..") {
		env.Cov(loc(eximNS, 45)) // dot-stuffing path
	}
	env.Work(20 * time.Microsecond)
}

func (t *eximServer) SaveState(w *guest.StateWriter) {
	w.IntTable(&t.Phase)
	w.IntTable(&t.Rcpts)
	w.IntTable(&t.Bodies)
	w.Int(t.Mails)
}

func (t *eximServer) LoadState(r *guest.StateReader) {
	r.IntTable(&t.Phase)
	r.IntTable(&t.Rcpts)
	r.IntTable(&t.Bodies)
	t.Mails = r.Int()
}

func init() {
	port := guest.Port{Proto: guest.TCP, Num: 25}
	Register(&Info{
		Name: "exim",
		Port: port,
		New:  func() guest.Target { return &eximServer{} },
		Seeds: func(s *spec.Spec) []*spec.Input {
			return []*spec.Input{
				seedSession(s, port, "EHLO test\r\n", "MAIL FROM:<a@b>\r\n", "RCPT TO:<c@d>\r\n",
					"DATA\r\n", "From: a@b\r\n", ".\r\n", "QUIT\r\n"),
				seedSession(s, port, "HELO test\r\n", "NOOP\r\n", "QUIT\r\n"),
			}
		},
		Dict: tokens("EHLO test\r\n", "HELO test\r\n", "MAIL FROM:<a@b>\r\n", "MAIL FROM:<>\r\n",
			"RCPT TO:<c@d>\r\n", "DATA\r\n", "RSET\r\n", "VRFY a\r\n", "NOOP\r\n", "QUIT\r\n",
			"Subject: hi\r\n", "From: a@b\r\n", " continued\r\n", ".\r\n", "..\r\n"),
		Startup: 220 * time.Millisecond, Cleanup: 140 * time.Millisecond,
		ServerWait:   160 * time.Millisecond,
		DesockCompat: false,
	})
}
