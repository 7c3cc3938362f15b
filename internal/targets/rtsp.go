package targets

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/guest"
	"repro/internal/spec"
)

// live555Server models the LIVE555 RTSP media server: session-oriented
// streaming control (DESCRIBE -> SETUP -> PLAY -> TEARDOWN) with a shallow
// crash all fuzzers find (Table 1): a URL-decoding bug in the request line.
type live555Server struct {
	Sessions guest.Table[int]    // conn -> 0 none, 1 described, 2 setup, 3 playing
	TrackIDs guest.Table[int]    // conn -> negotiated track
	SessIDs  guest.Table[string] // conn -> RTSP session id
	NextSess int
}

const rtspNS = 8

func newLive555() *live555Server {
	return &live555Server{NextSess: 1}
}

func (t *live555Server) Name() string        { return "live555" }
func (t *live555Server) Ports() []guest.Port { return []guest.Port{{Proto: guest.TCP, Num: 8554}} }

func (t *live555Server) Init(env *guest.Env) error {
	return env.FS().WriteFile("/srv/media/test.264", []byte("fake-h264-bitstream"))
}

func (t *live555Server) OnConnect(env *guest.Env, c *guest.Conn) {
	env.Cov(loc(rtspNS, 1))
	t.Sessions.Set(c.ID, 0)
}

func (t *live555Server) OnDisconnect(env *guest.Env, c *guest.Conn) {
	t.Sessions.Delete(c.ID)
	t.TrackIDs.Delete(c.ID)
	t.SessIDs.Delete(c.ID)
}

var rtspMethods = []string{"OPTIONS", "DESCRIBE", "SETUP", "PLAY", "PAUSE",
	"TEARDOWN", "GET_PARAMETER", "SET_PARAMETER", "ANNOUNCE", "RECORD"}

func (t *live555Server) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	env.Work(240 * time.Microsecond) // live555 is slow per request (Table 3)
	lines := strings.Split(string(data), "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	mi := -1
	for i, m := range rtspMethods {
		if parts[0] == m {
			mi = i
			break
		}
	}
	if mi < 0 {
		covByte(env, rtspNS, 2, firstByte(data))
		env.Send(c, []byte("RTSP/1.0 400 Bad Request\r\n\r\n"))
		return
	}
	covToken(env, rtspNS, 3, mi)
	if len(parts) < 3 || !strings.HasPrefix(parts[2], "RTSP/") {
		env.Cov(loc(rtspNS, 4))
		env.Send(c, []byte("RTSP/1.0 400 Bad Request\r\n\r\n"))
		return
	}
	url := parts[1]
	covClass(env, rtspNS, 5, len(url))

	// URL decoding: the Table 1 crash. "%" followed by a non-hex byte
	// makes the decoder read past the buffer.
	if i := strings.IndexByte(url, '%'); i >= 0 {
		env.Cov(loc(rtspNS, 6))
		if i+2 >= len(url) || !isHex(url[i+1]) || !isHex(url[i+2]) {
			env.Crash(guest.CrashSegfault, "live555: truncated %%-escape in URL read past end")
		}
		env.Cov(loc(rtspNS, 7)) // valid escape
	}

	// CSeq is mandatory.
	cseq := -1
	var transport string
	for _, line := range lines[1:] {
		l := strings.ToLower(line)
		if strings.HasPrefix(l, "cseq:") {
			n, err := strconv.Atoi(strings.TrimSpace(line[5:]))
			if err == nil {
				cseq = n
				env.Cov(loc(rtspNS, 8))
			} else {
				env.Cov(loc(rtspNS, 9)) // non-numeric CSeq
			}
		}
		if strings.HasPrefix(l, "transport:") {
			transport = strings.TrimSpace(line[10:])
		}
		if strings.HasPrefix(l, "session:") {
			env.Cov(loc(rtspNS, 10))
		}
		if strings.HasPrefix(l, "range:") {
			env.Cov(loc(rtspNS, 11))
		}
		if strings.HasPrefix(l, "accept:") {
			env.Cov(loc(rtspNS, 12))
		}
	}
	if cseq < 0 {
		env.Cov(loc(rtspNS, 13))
		env.Send(c, []byte("RTSP/1.0 400 CSeq missing\r\n\r\n"))
		return
	}

	state := t.Sessions.Get(c.ID)
	switch parts[0] {
	case "OPTIONS":
		env.Cov(loc(rtspNS, 20))
		env.Send(c, []byte("RTSP/1.0 200 OK\r\nPublic: DESCRIBE, SETUP, PLAY\r\n\r\n"))
	case "DESCRIBE":
		if !strings.HasSuffix(url, ".264") && !strings.Contains(url, "test") {
			env.Cov(loc(rtspNS, 21))
			env.Send(c, []byte("RTSP/1.0 404 Not Found\r\n\r\n"))
			return
		}
		env.Cov(loc(rtspNS, 22))
		t.Sessions.Set(c.ID, 1)
		env.Send(c, []byte("RTSP/1.0 200 OK\r\nContent-Type: application/sdp\r\n\r\nv=0\r\nm=video 0 RTP/AVP 96\r\n"))
	case "SETUP":
		if state < 1 {
			env.Cov(loc(rtspNS, 23))
			env.Send(c, []byte("RTSP/1.0 455 Method Not Valid In This State\r\n\r\n"))
			return
		}
		switch {
		case strings.Contains(transport, "RTP/AVP/TCP"):
			env.Cov(loc(rtspNS, 24)) // interleaved
		case strings.Contains(transport, "unicast"):
			env.Cov(loc(rtspNS, 25))
		case strings.Contains(transport, "multicast"):
			env.Cov(loc(rtspNS, 26))
		default:
			env.Cov(loc(rtspNS, 27))
		}
		t.Sessions.Set(c.ID, 2)
		t.SessIDs.Set(c.ID, "S"+strconv.Itoa(t.NextSess))
		t.NextSess++
		env.Sendf(c, "RTSP/1.0 200 OK\r\nSession: %s\r\n\r\n", t.SessIDs.Get(c.ID))
	case "PLAY":
		if state < 2 {
			env.Cov(loc(rtspNS, 28))
			env.Send(c, []byte("RTSP/1.0 455 Not Setup\r\n\r\n"))
			return
		}
		env.Cov(loc(rtspNS, 29))
		t.Sessions.Set(c.ID, 3)
		env.Send(c, []byte("RTSP/1.0 200 OK\r\nRTP-Info: seq=0\r\n\r\n"))
	case "PAUSE":
		if state == 3 {
			env.Cov(loc(rtspNS, 30))
			t.Sessions.Set(c.ID, 2)
		} else {
			env.Cov(loc(rtspNS, 31))
		}
		env.Send(c, []byte("RTSP/1.0 200 OK\r\n\r\n"))
	case "TEARDOWN":
		env.Cov(loc(rtspNS, 32))
		t.Sessions.Set(c.ID, 0)
		env.Send(c, []byte("RTSP/1.0 200 OK\r\n\r\n"))
	default:
		env.Cov(loc(rtspNS, 33))
		env.Send(c, []byte("RTSP/1.0 501 Not Implemented\r\n\r\n"))
	}
}

func isHex(b byte) bool {
	return (b >= '0' && b <= '9') || (b >= 'a' && b <= 'f') || (b >= 'A' && b <= 'F')
}

func (t *live555Server) SaveState(w *guest.StateWriter) {
	w.IntTable(&t.Sessions)
	w.IntTable(&t.TrackIDs)
	w.StringTable(&t.SessIDs)
	w.Int(t.NextSess)
}

func (t *live555Server) LoadState(r *guest.StateReader) {
	r.IntTable(&t.Sessions)
	r.IntTable(&t.TrackIDs)
	r.StringTable(&t.SessIDs)
	t.NextSess = r.Int()
}

func init() {
	port := guest.Port{Proto: guest.TCP, Num: 8554}
	Register(&Info{
		Name: "live555",
		Port: port,
		New:  func() guest.Target { return newLive555() },
		Seeds: func(s *spec.Spec) []*spec.Input {
			return []*spec.Input{
				seedSession(s, port,
					"OPTIONS rtsp://h/test.264 RTSP/1.0\r\nCSeq: 1\r\n\r\n",
					"DESCRIBE rtsp://h/test.264 RTSP/1.0\r\nCSeq: 2\r\nAccept: application/sdp\r\n\r\n",
					"SETUP rtsp://h/test.264/track1 RTSP/1.0\r\nCSeq: 3\r\nTransport: RTP/AVP;unicast\r\n\r\n",
					"PLAY rtsp://h/test.264 RTSP/1.0\r\nCSeq: 4\r\nSession: S1\r\nRange: npt=0-\r\n\r\n",
					"TEARDOWN rtsp://h/test.264 RTSP/1.0\r\nCSeq: 5\r\nSession: S1\r\n\r\n"),
			}
		},
		Dict: tokens("OPTIONS", "DESCRIBE", "SETUP", "PLAY", "PAUSE", "TEARDOWN",
			"GET_PARAMETER", "rtsp://h/test.264", "CSeq: 1\r\n", "Transport: RTP/AVP;unicast\r\n",
			"Transport: RTP/AVP/TCP\r\n", "Session: S1\r\n", "Range: npt=0-\r\n", "%41", "%"),
		Startup: 120 * time.Millisecond, Cleanup: 70 * time.Millisecond,
		ServerWait:   100 * time.Millisecond,
		DesockCompat: false,
	})
}
