package targets

import (
	"strings"
	"time"

	"repro/internal/guest"
	"repro/internal/spec"
)

// daapdServer models forked-daapd (now OwnTone): an HTTP/DAAP media server
// that is by far the slowest ProFuzzBench target (0.4 execs/s under AFLnet,
// Table 3) because every request touches a database and the server forks
// workers. The simulation reproduces that cost profile: heavy per-request
// work, database file writes, and a forked worker per session.
type daapdServer struct {
	Sessions guest.Table[int] // conn -> session id
	NextSess int
	DBWrites int
}

const daapNS = 13

func newDaapd() *daapdServer { return &daapdServer{NextSess: 1} }

func (t *daapdServer) Name() string        { return "forked-daapd" }
func (t *daapdServer) Ports() []guest.Port { return []guest.Port{{Proto: guest.TCP, Num: 3689}} }

func (t *daapdServer) Init(env *guest.Env) error {
	// Database initialization dominates startup.
	env.Work(18 * time.Millisecond)
	if err := env.FS().WriteFile("/var/db/daapd/songs.db", []byte("sqlite-page-0")); err != nil {
		return err
	}
	return env.FS().WriteFile("/etc/daapd.conf", []byte("library { name = \"test\" }\n"))
}

func (t *daapdServer) OnConnect(env *guest.Env, c *guest.Conn) {
	env.Cov(loc(daapNS, 1))
	// forked-daapd hands each session to a worker (the forking-server
	// pattern of §3.3 that requires cross-process stream sync).
	child := env.Kernel().Fork(env.Process())
	_ = child
	t.Sessions.Set(c.ID, t.NextSess)
	t.NextSess++
}

func (t *daapdServer) OnDisconnect(env *guest.Env, c *guest.Conn) {
	t.Sessions.Delete(c.ID)
}

var daapEndpoints = []string{"/server-info", "/login", "/update", "/databases",
	"/databases/1/items", "/databases/1/containers", "/logout", "/ctrl-int",
	"/artwork", "/stream"}

func (t *daapdServer) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	env.Work(2500 * time.Microsecond) // every request hits the DB

	lines := strings.Split(string(data), "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		covByte(env, daapNS, 2, firstByte(data))
		env.Send(c, []byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
		return
	}
	method, path := parts[0], parts[1]
	switch method {
	case "GET":
		env.Cov(loc(daapNS, 3))
	case "POST":
		env.Cov(loc(daapNS, 4))
	case "HEAD":
		env.Cov(loc(daapNS, 5))
	default:
		env.Cov(loc(daapNS, 6))
		env.Send(c, []byte("HTTP/1.1 405 Method Not Allowed\r\n\r\n"))
		return
	}

	ei := -1
	for i, ep := range daapEndpoints {
		if strings.HasPrefix(path, ep) {
			ei = i
			break
		}
	}
	if ei < 0 {
		env.Cov(loc(daapNS, 7))
		env.Send(c, []byte("HTTP/1.1 404 Not Found\r\n\r\n"))
		return
	}
	covToken(env, daapNS, 8, ei)

	// Query string parsing: each known parameter is a branch.
	if qi := strings.IndexByte(path, '?'); qi >= 0 {
		env.Cov(loc(daapNS, 9))
		for pi, param := range []string{"session-id", "revision-number", "meta", "type", "query", "index"} {
			if strings.Contains(path[qi:], param+"=") {
				covToken(env, daapNS, 10, pi)
			}
		}
	}

	// Header walk.
	for _, line := range lines[1:] {
		l := strings.ToLower(line)
		for hi, h := range []string{"host:", "user-agent:", "accept:", "client-daap-version:", "range:"} {
			if strings.HasPrefix(l, h) {
				covToken(env, daapNS, 11, hi)
			}
		}
	}

	switch {
	case strings.HasPrefix(path, "/login"):
		env.Cov(loc(daapNS, 12))
		t.DBWrites++
		env.FS().AppendFile("/var/db/daapd/sessions", []byte{byte(t.NextSess)}) //nolint:errcheck
		env.Send(c, []byte("HTTP/1.1 200 OK\r\nContent-Type: application/x-dmap-tagged\r\n\r\nmlog"))
	case strings.HasPrefix(path, "/update"):
		if t.Sessions.Get(c.ID) == 0 {
			env.Cov(loc(daapNS, 13))
			env.Send(c, []byte("HTTP/1.1 403 Forbidden\r\n\r\n"))
			return
		}
		env.Cov(loc(daapNS, 14))
		env.Send(c, []byte("HTTP/1.1 200 OK\r\n\r\nmupd"))
	case strings.HasPrefix(path, "/databases"):
		env.Cov(loc(daapNS, 15))
		env.Work(1500 * time.Microsecond) // the big DB query
		t.DBWrites++
		env.FS().AppendFile("/var/db/daapd/query.log", []byte(path[:min(len(path), 32)])) //nolint:errcheck
		env.Send(c, []byte("HTTP/1.1 200 OK\r\n\r\nadbs"))
	case strings.HasPrefix(path, "/stream"):
		env.Cov(loc(daapNS, 16))
		env.Send(c, []byte("HTTP/1.1 206 Partial Content\r\n\r\n"))
	default:
		env.Cov(loc(daapNS, 17))
		env.Send(c, []byte("HTTP/1.1 200 OK\r\n\r\nmsrv"))
	}
}

func (t *daapdServer) SaveState(w *guest.StateWriter) {
	w.IntTable(&t.Sessions)
	w.Int(t.NextSess)
	w.Int(t.DBWrites)
}

func (t *daapdServer) LoadState(r *guest.StateReader) {
	r.IntTable(&t.Sessions)
	t.NextSess = r.Int()
	t.DBWrites = r.Int()
}

func init() {
	port := guest.Port{Proto: guest.TCP, Num: 3689}
	Register(&Info{
		Name: "forked-daapd",
		Port: port,
		New:  func() guest.Target { return newDaapd() },
		Seeds: func(s *spec.Spec) []*spec.Input {
			return []*spec.Input{
				seedSession(s, port,
					"GET /server-info HTTP/1.1\r\nHost: h\r\n\r\n",
					"GET /login HTTP/1.1\r\nHost: h\r\n\r\n",
					"GET /databases?session-id=1 HTTP/1.1\r\nHost: h\r\n\r\n",
					"GET /update?session-id=1&revision-number=1 HTTP/1.1\r\nHost: h\r\n\r\n"),
			}
		},
		Dict: tokens("GET ", "POST ", "/server-info", "/login", "/update", "/databases",
			"/databases/1/items", "?session-id=1", "&revision-number=1", "&meta=all",
			" HTTP/1.1\r\n", "Host: h\r\n", "Client-DAAP-Version: 3.0\r\n"),
		// The paper's slowest target: huge startup (library scan) and
		// per-request DB cost.
		Startup: 2500 * time.Millisecond, Cleanup: 400 * time.Millisecond,
		ServerWait:   500 * time.Millisecond,
		DesockCompat: true,
	})
}
