package targets

import (
	"strings"
	"time"

	"repro/internal/guest"
	"repro/internal/spec"
)

// kamailioServer models kamailio: a SIP proxy with a very large parsing
// surface (methods, many headers, URI forms) — the target where Nyx-Net
// gains the most coverage over AFLnet in Table 2 (+45–47%), because most
// of its surface hides behind header-rich multi-line messages that random
// byte mutation over real sockets explores far too slowly.
type kamailioServer struct {
	Dialogs  guest.Table[int]    // conn -> dialog state (0 none, 1 invited, 2 acked)
	CallIDs  guest.Table[string] // conn -> current Call-ID
	Registra int                 // processed REGISTER count
}

const sipNS = 7

func (t *kamailioServer) Name() string        { return "kamailio" }
func (t *kamailioServer) Ports() []guest.Port { return []guest.Port{{Proto: guest.UDP, Num: 5060}} }

func (t *kamailioServer) Init(env *guest.Env) error {
	return env.FS().WriteFile("/etc/kamailio.cfg", []byte("listen=udp:0.0.0.0:5060\n"))
}

func (t *kamailioServer) OnConnect(env *guest.Env, c *guest.Conn) {
	env.Cov(loc(sipNS, 1))
	t.Dialogs.Set(c.ID, 0)
}

func (t *kamailioServer) OnDisconnect(env *guest.Env, c *guest.Conn) {
	t.Dialogs.Delete(c.ID)
	t.CallIDs.Delete(c.ID)
}

var sipMethods = []string{"INVITE", "ACK", "BYE", "CANCEL", "REGISTER", "OPTIONS",
	"SUBSCRIBE", "NOTIFY", "INFO", "UPDATE", "PRACK", "MESSAGE", "REFER", "PUBLISH"}

var sipHeaders = []string{"via", "from", "to", "call-id", "cseq", "contact",
	"max-forwards", "expires", "content-type", "content-length", "route",
	"record-route", "user-agent", "allow", "supported", "authorization"}

func (t *kamailioServer) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	env.Work(70 * time.Microsecond)
	lines := strings.Split(string(data), "\r\n")
	if len(lines) == 0 || lines[0] == "" {
		env.Cov(loc(sipNS, 2))
		return
	}

	// Request line: METHOD URI SIP/2.0
	parts := strings.SplitN(lines[0], " ", 3)
	mi := -1
	for i, m := range sipMethods {
		if parts[0] == m {
			mi = i
			break
		}
	}
	if mi < 0 {
		if strings.HasPrefix(parts[0], "SIP/2.0") {
			env.Cov(loc(sipNS, 3)) // a response, not a request
		} else {
			covByte(env, sipNS, 4, firstByte(data))
		}
		env.Send(c, []byte("SIP/2.0 400 Bad Request\r\n\r\n"))
		return
	}
	covToken(env, sipNS, 5, mi)
	if len(parts) < 3 {
		env.Cov(loc(sipNS, 6))
		env.Send(c, []byte("SIP/2.0 400 Bad Request\r\n\r\n"))
		return
	}
	uri := parts[1]
	switch {
	case strings.HasPrefix(uri, "sip:"):
		env.Cov(loc(sipNS, 7))
	case strings.HasPrefix(uri, "sips:"):
		env.Cov(loc(sipNS, 8))
	case strings.HasPrefix(uri, "tel:"):
		env.Cov(loc(sipNS, 9))
	default:
		env.Cov(loc(sipNS, 10))
	}
	covClass(env, sipNS, 11, len(uri))
	if strings.Contains(uri, "@") {
		env.Cov(loc(sipNS, 12))
	}
	if strings.Contains(uri, ";") {
		env.Cov(loc(sipNS, 13)) // URI parameters
	}

	// Header loop: each recognized header has its own parse path.
	var callID string
	hasVia, hasCSeq := false, false
	for _, line := range lines[1:] {
		if line == "" {
			break
		}
		ci := strings.IndexByte(line, ':')
		if ci <= 0 {
			env.Cov(loc(sipNS, 14)) // malformed header line
			continue
		}
		name := strings.ToLower(strings.TrimSpace(line[:ci]))
		val := strings.TrimSpace(line[ci+1:])
		hi := -1
		for i, h := range sipHeaders {
			if name == h {
				hi = i
				break
			}
		}
		if hi < 0 {
			covClass(env, sipNS, 15, len(name)) // unknown header
			continue
		}
		covToken(env, sipNS, 16, hi)
		covClass(env, sipNS, 17+uint32(hi), len(val))
		switch name {
		case "call-id":
			callID = val
		case "via":
			hasVia = true
			if strings.Contains(val, "branch=z9hG4bK") {
				env.Cov(loc(sipNS, 40)) // RFC3261 magic cookie
			}
		case "cseq":
			hasCSeq = true
		case "max-forwards":
			if val == "0" {
				env.Cov(loc(sipNS, 41)) // loop detection path
			}
		}
	}
	if !hasVia || !hasCSeq {
		env.Cov(loc(sipNS, 42))
		env.Send(c, []byte("SIP/2.0 400 Missing Header\r\n\r\n"))
		return
	}

	// Dialog state machine.
	switch parts[0] {
	case "INVITE":
		t.Dialogs.Set(c.ID, 1)
		t.CallIDs.Set(c.ID, callID)
		env.Cov(loc(sipNS, 43))
		env.Send(c, []byte("SIP/2.0 100 Trying\r\nSIP/2.0 180 Ringing\r\n\r\n"))
	case "ACK":
		if t.Dialogs.Get(c.ID) == 1 && t.CallIDs.Get(c.ID) == callID {
			env.Cov(loc(sipNS, 44)) // in-dialog ACK
			t.Dialogs.Set(c.ID, 2)
		} else {
			env.Cov(loc(sipNS, 45)) // stray ACK
		}
	case "BYE":
		if t.Dialogs.Get(c.ID) == 2 {
			env.Cov(loc(sipNS, 46)) // tearing down established dialog
			t.Dialogs.Set(c.ID, 0)
			env.Send(c, []byte("SIP/2.0 200 OK\r\n\r\n"))
		} else {
			env.Cov(loc(sipNS, 47))
			env.Send(c, []byte("SIP/2.0 481 No Dialog\r\n\r\n"))
		}
	case "REGISTER":
		t.Registra++
		env.Cov(loc(sipNS, 48))
		env.Send(c, []byte("SIP/2.0 200 OK\r\n\r\n"))
	default:
		env.Send(c, []byte("SIP/2.0 200 OK\r\n\r\n"))
	}
}

func (t *kamailioServer) SaveState(w *guest.StateWriter) {
	w.IntTable(&t.Dialogs)
	w.StringTable(&t.CallIDs)
	w.Int(t.Registra)
}

func (t *kamailioServer) LoadState(r *guest.StateReader) {
	r.IntTable(&t.Dialogs)
	r.StringTable(&t.CallIDs)
	t.Registra = r.Int()
}

func sipMsg(method, callID string, extra ...string) string {
	msg := method + " sip:bob@test.lan SIP/2.0\r\n" +
		"Via: SIP/2.0/UDP host;branch=z9hG4bK776\r\n" +
		"From: <sip:alice@test.lan>\r\n" +
		"To: <sip:bob@test.lan>\r\n" +
		"Call-ID: " + callID + "\r\n" +
		"CSeq: 1 " + method + "\r\n"
	for _, e := range extra {
		msg += e + "\r\n"
	}
	return msg + "\r\n"
}

func init() {
	port := guest.Port{Proto: guest.UDP, Num: 5060}
	Register(&Info{
		Name: "kamailio",
		Port: port,
		New:  func() guest.Target { return &kamailioServer{} },
		Seeds: func(s *spec.Spec) []*spec.Input {
			return []*spec.Input{
				seedSession(s, port,
					sipMsg("INVITE", "c1", "Max-Forwards: 70"),
					sipMsg("ACK", "c1"),
					sipMsg("BYE", "c1")),
				seedSession(s, port, sipMsg("REGISTER", "r1", "Expires: 3600", "Contact: <sip:a@h>")),
				seedSession(s, port, sipMsg("OPTIONS", "o1")),
			}
		},
		Dict: tokens("INVITE", "ACK", "BYE", "CANCEL", "REGISTER", "OPTIONS", "SUBSCRIBE",
			"NOTIFY", "MESSAGE", "sip:", "sips:", "tel:", "Via: SIP/2.0/UDP h;branch=z9hG4bK1\r\n",
			"Call-ID: x\r\n", "CSeq: 1 INVITE\r\n", "Max-Forwards: 0\r\n", "Contact: <sip:a@h>\r\n",
			"Content-Length: 0\r\n", "Route: <sip:p>\r\n", ";lr", "@test.lan"),
		Startup: 260 * time.Millisecond, Cleanup: 150 * time.Millisecond,
		ServerWait:   180 * time.Millisecond,
		DesockCompat: false,
	})
}
