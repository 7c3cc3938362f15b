package targets

import (
	"encoding/binary"
	"strings"
	"time"

	"repro/internal/guest"
	"repro/internal/spec"
)

// ---- echo (quickstart) ----

// echoServer is the minimal example target used by the quickstart.
type echoServer struct {
	Count int
}

const echoNS = 20

func (t *echoServer) Name() string        { return "echo" }
func (t *echoServer) Ports() []guest.Port { return []guest.Port{{Proto: guest.TCP, Num: 7}} }
func (t *echoServer) Init(env *guest.Env) error {
	return nil
}
func (t *echoServer) OnConnect(env *guest.Env, c *guest.Conn) {
	env.Cov(loc(echoNS, 1))
	env.Send(c, []byte("hello\n"))
}
func (t *echoServer) OnDisconnect(env *guest.Env, c *guest.Conn) {}
func (t *echoServer) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	env.Work(5 * time.Microsecond)
	t.Count++
	covClass(env, echoNS, 2, len(data))
	covByte(env, echoNS, 4, firstByte(data))
	if len(data) > 0 && data[0] == '!' {
		env.Cov(loc(echoNS, 3)) // command escape
		if strings.HasPrefix(string(data), "!stats") {
			env.Sendf(c, "count=%d\n", t.Count)
			return
		}
	}
	env.Send(c, data)
}
func (t *echoServer) SaveState(w *guest.StateWriter) { w.Int(t.Count) }
func (t *echoServer) LoadState(r *guest.StateReader) { t.Count = r.Int() }

// ---- mysql-client (§5.4): fuzzing a CLIENT ----
//
// The fuzzer plays the *server*: the target under test is the client-side
// protocol parser. The attack surface is the data the client receives, so
// packets flow fuzzer->client exactly like server fuzzing — Nyx-Net's
// emulation layer makes the direction irrelevant. The seeded bug is the
// out-of-bounds read the paper found in the Ubuntu-shipped client.
type mysqlClient struct {
	Phase   guest.Table[int] // 0 expect-handshake, 1 authed, 2 in-resultset
	Columns guest.Table[int]
}

const mysqlNS = 21

func (t *mysqlClient) Name() string        { return "mysql-client" }
func (t *mysqlClient) Ports() []guest.Port { return []guest.Port{{Proto: guest.TCP, Num: 3306}} }
func (t *mysqlClient) Init(env *guest.Env) error {
	return env.FS().WriteFile("/home/user/.my.cnf", []byte("[client]\nuser=root\n"))
}
func (t *mysqlClient) OnConnect(env *guest.Env, c *guest.Conn) {
	env.Cov(loc(mysqlNS, 1))
	t.Phase.Set(c.ID, 0)
	// The client speaks first from the fuzzer's perspective? No: in
	// MySQL the *server* greets, i.e. the fuzzer sends the first packet.
}
func (t *mysqlClient) OnDisconnect(env *guest.Env, c *guest.Conn) {
	t.Phase.Delete(c.ID)
	t.Columns.Delete(c.ID)
}

func (t *mysqlClient) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	env.Work(40 * time.Microsecond)
	// MySQL wire packet: len(3) seq(1) payload.
	if len(data) < 5 {
		env.Cov(loc(mysqlNS, 2))
		return
	}
	seq := data[3]
	payload := data[4:]
	covByte(env, mysqlNS, 3, seq&0x7)

	switch t.Phase.Get(c.ID) {
	case 0: // expecting the server handshake
		protoVer := payload[0]
		covByte(env, mysqlNS, 4, protoVer)
		if protoVer != 10 {
			env.Cov(loc(mysqlNS, 5)) // unsupported protocol
			return
		}
		// server version string: NUL-terminated
		nul := -1
		for i, b := range payload[1:] {
			if b == 0 {
				nul = i + 1
				break
			}
		}
		if nul < 0 {
			// The OOB read: version string without terminator makes
			// the client read past the packet looking for NUL.
			env.Cov(loc(mysqlNS, 6))
			env.Crash(guest.CrashSegfault,
				"mysql-client: unterminated server version string, OOB read in greeting parser")
		}
		covClass(env, mysqlNS, 7, nul)
		t.Phase.Set(c.ID, 1)
		env.Send(c, []byte("\x01\x00\x00\x01\x85")) // login request
	case 1: // expecting OK/ERR/result header
		switch payload[0] {
		case 0x00:
			env.Cov(loc(mysqlNS, 8)) // OK packet
		case 0xFF:
			env.Cov(loc(mysqlNS, 9)) // ERR packet: parse error code
			if len(payload) >= 3 {
				covByte(env, mysqlNS, 10, payload[1])
			}
		case 0xFE:
			env.Cov(loc(mysqlNS, 11)) // EOF / auth switch
		default:
			env.Cov(loc(mysqlNS, 12)) // column count -> result set
			t.Columns.Set(c.ID, int(payload[0]))
			t.Phase.Set(c.ID, 2)
		}
	case 2: // column definitions / rows
		if payload[0] == 0xFE {
			env.Cov(loc(mysqlNS, 13)) // end of result set
			t.Phase.Set(c.ID, 1)
			return
		}
		env.Cov(loc(mysqlNS, 14))
		// length-encoded strings; branch on length classes
		covClass(env, mysqlNS, 15, len(payload))
		if t.Columns.Get(c.ID) > 32 {
			env.Cov(loc(mysqlNS, 16)) // wide result rendering path
		}
	}
}

func (t *mysqlClient) SaveState(w *guest.StateWriter) {
	w.IntTable(&t.Phase)
	w.IntTable(&t.Columns)
}
func (t *mysqlClient) LoadState(r *guest.StateReader) {
	r.IntTable(&t.Phase)
	r.IntTable(&t.Columns)
}

// mysqlPacket frames a MySQL wire packet.
func mysqlPacket(seq byte, payload []byte) []byte {
	b := make([]byte, 4+len(payload))
	b[0] = byte(len(payload))
	b[1] = byte(len(payload) >> 8)
	b[2] = byte(len(payload) >> 16)
	b[3] = seq
	copy(b[4:], payload)
	return b
}

func mysqlGreeting() []byte {
	p := []byte{10}
	p = append(p, []byte("8.0.36-sim\x00")...)
	p = append(p, 1, 0, 0, 0) // thread id
	return mysqlPacket(0, p)
}

// ---- lighttpd (§5.5) ----

// lighttpdServer models lighttpd's development branch with the integer
// underflow in an allocation size the paper reported and got fixed before
// release: a Content-Length smaller than the already-consumed body bytes
// underflows the remaining-length computation, which flows into malloc.
type lighttpdServer struct {
	Keep guest.Table[int] // conn -> keepalive request count
}

const lighttpdNS = 22

func (t *lighttpdServer) Name() string        { return "lighttpd" }
func (t *lighttpdServer) Ports() []guest.Port { return []guest.Port{{Proto: guest.TCP, Num: 80}} }
func (t *lighttpdServer) Init(env *guest.Env) error {
	return env.FS().WriteFile("/var/www/index.html", []byte("<html>ok</html>"))
}
func (t *lighttpdServer) OnConnect(env *guest.Env, c *guest.Conn) {
	env.Cov(loc(lighttpdNS, 1))
	t.Keep.Set(c.ID, 0)
}
func (t *lighttpdServer) OnDisconnect(env *guest.Env, c *guest.Conn) { t.Keep.Delete(c.ID) }

func (t *lighttpdServer) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	env.Work(55 * time.Microsecond)
	lines := strings.Split(string(data), "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 3 {
		env.Cov(loc(lighttpdNS, 2))
		env.Send(c, []byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
		return
	}
	method, path := parts[0], parts[1]
	for mi, m := range []string{"GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS"} {
		if method == m {
			covToken(env, lighttpdNS, 3, mi)
		}
	}
	covClass(env, lighttpdNS, 4, len(path))
	t.Keep.Add(c.ID, 1)

	contentLength := int64(-1)
	bodyStart := -1
	for i, line := range lines[1:] {
		if line == "" {
			bodyStart = i + 2
			break
		}
		l := strings.ToLower(line)
		if strings.HasPrefix(l, "content-length:") {
			env.Cov(loc(lighttpdNS, 5))
			v := strings.TrimSpace(line[15:])
			var n int64
			neg := false
			for _, ch := range v {
				if ch == '-' {
					neg = true
					continue
				}
				if ch < '0' || ch > '9' {
					break
				}
				n = n*10 + int64(ch-'0')
			}
			if neg {
				n = -n
			}
			contentLength = n
		}
		if strings.HasPrefix(l, "transfer-encoding:") {
			env.Cov(loc(lighttpdNS, 6))
		}
		if strings.HasPrefix(l, "range:") {
			env.Cov(loc(lighttpdNS, 7))
		}
		if strings.HasPrefix(l, "connection:") {
			env.Cov(loc(lighttpdNS, 8))
		}
	}

	if method == "POST" || method == "PUT" {
		env.Cov(loc(lighttpdNS, 9))
		var body int64
		if bodyStart > 0 && bodyStart < len(lines) {
			body = int64(len(strings.Join(lines[bodyStart:], "\r\n")))
		}
		if contentLength >= 0 {
			remaining := contentLength - body
			// The §5.5 bug: the remaining-length computation can go
			// negative and flows into the allocator.
			env.Alloc("lighttpd: request body remaining length", remaining)
			env.Free(remaining)
			env.Cov(loc(lighttpdNS, 10))
		} else if contentLength < -1 {
			env.Cov(loc(lighttpdNS, 11)) // negative Content-Length header
			env.Alloc("lighttpd: negative Content-Length", contentLength)
		}
	}
	if strings.Contains(path, "..") {
		env.Cov(loc(lighttpdNS, 12))
		env.Send(c, []byte("HTTP/1.1 403 Forbidden\r\n\r\n"))
		return
	}
	if path == "/" || path == "/index.html" {
		env.Cov(loc(lighttpdNS, 13))
		env.Send(c, []byte("HTTP/1.1 200 OK\r\nContent-Length: 15\r\n\r\n<html>ok</html>"))
	} else {
		env.Cov(loc(lighttpdNS, 14))
		env.Send(c, []byte("HTTP/1.1 404 Not Found\r\n\r\n"))
	}
}

func (t *lighttpdServer) SaveState(w *guest.StateWriter) { w.IntTable(&t.Keep) }
func (t *lighttpdServer) LoadState(r *guest.StateReader) { r.IntTable(&t.Keep) }

// ---- firefox-ipc (§5.6) ----

// firefoxIPC models Firefox's parent-process IPC surface: many actors
// behind one message scheme, multiple simultaneous Unix-socket connections,
// and shared-memory handle passing. The threat model is a compromised
// content process attacking the parent. Three null-deref bugs (the paper's
// findings) hide in rarely-exercised actor methods.
type firefoxIPC struct {
	Actors  guest.Table[int] // actorID -> refcount
	Pending guest.Table[int] // conn -> in-flight sync messages
	SharedM int
}

const ipcNS = 23

func (t *firefoxIPC) Name() string { return "firefox-ipc" }
func (t *firefoxIPC) Ports() []guest.Port {
	// Firefox uses "approximately a hundred sockets"; the agent hooks
	// several at once (multi-connection spec).
	return []guest.Port{
		{Proto: guest.Unix, Num: 1}, // PContent
		{Proto: guest.Unix, Num: 2}, // PCompositor
		{Proto: guest.Unix, Num: 3}, // PNecko
	}
}
func (t *firefoxIPC) Init(env *guest.Env) error {
	env.Work(12 * time.Millisecond) // parent process boot
	return env.FS().WriteFile("/tmp/.mozipc", []byte("parent-ready"))
}
func (t *firefoxIPC) OnConnect(env *guest.Env, c *guest.Conn) {
	covToken(env, ipcNS, 1, c.Port.Num)
	t.Pending.Set(c.ID, 0)
}
func (t *firefoxIPC) OnDisconnect(env *guest.Env, c *guest.Conn) { t.Pending.Delete(c.ID) }

func (t *firefoxIPC) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	env.Work(80 * time.Microsecond)
	// IPC message: msgType(2) actorID(2) flags(1) payload.
	if len(data) < 5 {
		env.Cov(loc(ipcNS, 2))
		return
	}
	msgType := binary.LittleEndian.Uint16(data[0:])
	actorID := int(binary.LittleEndian.Uint16(data[2:]))
	flags := data[4]
	payload := data[5:]
	covToken(env, ipcNS, 3, int(msgType%64))
	if flags&1 != 0 {
		env.Cov(loc(ipcNS, 4)) // sync message
		t.Pending.Add(c.ID, 1)
	}

	switch msgType % 8 {
	case 0: // ConstructActor
		env.Cov(loc(ipcNS, 5))
		t.Actors.Add(actorID, 1)
	case 1: // DestroyActor
		if t.Actors.Get(actorID) == 0 {
			// Null deref #1: destroying a never-constructed actor.
			env.Cov(loc(ipcNS, 6))
			env.NullDeref("ActorLifecycle::Destroy")
		}
		t.Actors.Add(actorID, -1)
		env.Cov(loc(ipcNS, 7))
	case 2: // SendShmem
		env.Cov(loc(ipcNS, 8))
		if len(payload) < 4 {
			// Null deref #2: shmem handle message without a handle.
			env.NullDeref("SharedMemory::Map")
		}
		t.SharedM++
	case 3: // PCompositor paint
		if c.Port.Num != 2 {
			env.Cov(loc(ipcNS, 9)) // wrong-actor routing
			return
		}
		env.Cov(loc(ipcNS, 10))
		covClass(env, ipcNS, 11, len(payload))
	case 4: // PNecko HTTP channel
		if c.Port.Num != 3 {
			env.Cov(loc(ipcNS, 12))
			return
		}
		env.Cov(loc(ipcNS, 13))
		if len(payload) > 0 && payload[0] == 0xFE && t.Pending.Get(c.ID) > 2 {
			// Null deref #3: redirect during pending sync flood.
			env.NullDeref("HttpChannelParent::Redirect")
		}
	case 5: // reply
		if t.Pending.Get(c.ID) > 0 {
			t.Pending.Add(c.ID, -1)
			env.Cov(loc(ipcNS, 14))
		} else {
			env.Cov(loc(ipcNS, 15)) // unsolicited reply
		}
	default:
		covByte(env, ipcNS, 16, byte(msgType>>8))
	}
}

func (t *firefoxIPC) SaveState(w *guest.StateWriter) {
	w.IntTable(&t.Actors)
	w.IntTable(&t.Pending)
	w.Int(t.SharedM)
}
func (t *firefoxIPC) LoadState(r *guest.StateReader) {
	r.IntTable(&t.Actors)
	r.IntTable(&t.Pending)
	t.SharedM = r.Int()
}

// ipcMsg frames an IPC message.
func ipcMsg(msgType uint16, actor uint16, flags byte, payload []byte) []byte {
	b := make([]byte, 5+len(payload))
	binary.LittleEndian.PutUint16(b[0:], msgType)
	binary.LittleEndian.PutUint16(b[2:], actor)
	b[4] = flags
	copy(b[5:], payload)
	return b
}

func init() {
	echoPort := guest.Port{Proto: guest.TCP, Num: 7}
	Register(&Info{
		Name: "echo", Port: echoPort,
		New: func() guest.Target { return &echoServer{} },
		Seeds: func(s *spec.Spec) []*spec.Input {
			return []*spec.Input{seedSession(s, echoPort, "hello\n", "!stats\n")}
		},
		Dict:    tokens("!stats\n", "!"),
		Startup: 5 * time.Millisecond, Cleanup: 5 * time.Millisecond,
		ServerWait:   10 * time.Millisecond,
		DesockCompat: true,
	})

	mysqlPort := guest.Port{Proto: guest.TCP, Num: 3306}
	Register(&Info{
		Name: "mysql-client", Port: mysqlPort,
		New: func() guest.Target { return &mysqlClient{} },
		Seeds: func(s *spec.Spec) []*spec.Input {
			return []*spec.Input{
				seedSession(s, mysqlPort,
					string(mysqlGreeting()),
					string(mysqlPacket(2, []byte{0x00, 0x00})),
					string(mysqlPacket(1, []byte{0x03})),
					string(mysqlPacket(2, []byte{0xFE})),
				),
			}
		},
		Dict: [][]byte{
			mysqlGreeting(), mysqlPacket(0, []byte{10}), mysqlPacket(1, []byte{0x00}),
			mysqlPacket(1, []byte{0xFF, 0x15, 0x04}), mysqlPacket(1, []byte{0xFE}),
		},
		Startup: 90 * time.Millisecond, Cleanup: 40 * time.Millisecond,
		ServerWait:   70 * time.Millisecond,
		DesockCompat: false,
	})

	httpPort := guest.Port{Proto: guest.TCP, Num: 80}
	Register(&Info{
		Name: "lighttpd", Port: httpPort,
		New: func() guest.Target { return &lighttpdServer{} },
		Seeds: func(s *spec.Spec) []*spec.Input {
			return []*spec.Input{
				seedSession(s, httpPort,
					"GET / HTTP/1.1\r\nHost: h\r\nConnection: keep-alive\r\n\r\n",
					"POST /form HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd"),
			}
		},
		Dict: tokens("GET ", "POST ", "PUT ", "HEAD ", " HTTP/1.1\r\n", "Host: h\r\n",
			"Content-Length: ", "Content-Length: 0\r\n", "Content-Length: -1\r\n",
			"Transfer-Encoding: chunked\r\n", "Range: bytes=0-\r\n", "Connection: close\r\n"),
		Startup: 55 * time.Millisecond, Cleanup: 30 * time.Millisecond,
		ServerWait:   60 * time.Millisecond,
		DesockCompat: true,
	})

	Register(&Info{
		Name: "firefox-ipc", Port: guest.Port{Proto: guest.Unix, Num: 1},
		New: func() guest.Target { return &firefoxIPC{} },
		Seeds: func(s *spec.Spec) []*spec.Input {
			// Multi-connection seed: talk to three actors in one input,
			// the capability §5.6 required adding to the agent.
			con1, _ := s.NodeByName("connect_unix_1")
			con2, _ := s.NodeByName("connect_unix_2")
			con3, _ := s.NodeByName("connect_unix_3")
			pkt, _ := s.NodeByName("packet")
			in := spec.NewInput(
				spec.Op{Node: con1},
				spec.Op{Node: con2},
				spec.Op{Node: con3},
				spec.Op{Node: pkt, Args: []uint16{0}, Data: ipcMsg(0, 7, 0, []byte("ctor"))},
				spec.Op{Node: pkt, Args: []uint16{1}, Data: ipcMsg(3, 7, 0, []byte("paint-data"))},
				spec.Op{Node: pkt, Args: []uint16{2}, Data: ipcMsg(4, 7, 1, []byte{0x01, 0x02})},
				spec.Op{Node: pkt, Args: []uint16{0}, Data: ipcMsg(5, 7, 0, nil)},
				spec.Op{Node: pkt, Args: []uint16{0}, Data: ipcMsg(2, 7, 0, []byte{1, 2, 3, 4})},
			)
			return []*spec.Input{in}
		},
		Dict: [][]byte{
			ipcMsg(0, 1, 0, nil), ipcMsg(1, 1, 0, nil), ipcMsg(2, 1, 0, []byte{1, 2, 3, 4}),
			ipcMsg(3, 1, 0, []byte("p")), ipcMsg(4, 1, 1, []byte{0xFE}), ipcMsg(5, 1, 0, nil),
		},
		Startup: 900 * time.Millisecond, Cleanup: 300 * time.Millisecond,
		ServerWait:   400 * time.Millisecond,
		DesockCompat: false,
	})
}
