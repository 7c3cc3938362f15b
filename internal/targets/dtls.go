package targets

import (
	"encoding/binary"
	"time"

	"repro/internal/guest"
	"repro/internal/spec"
)

// tinydtlsServer models the tinydtls library server: DTLS over UDP with a
// cookie exchange. Its Table 1 crash is a shallow one in the cookie check:
// a claimed cookie length larger than the datagram reads out of bounds.
type tinydtlsServer struct {
	Cookies guest.Table[int] // conn -> cookie exchange state
	Epochs  guest.Table[int]
}

const dtlsNS = 12

func (t *tinydtlsServer) Name() string        { return "tinydtls" }
func (t *tinydtlsServer) Ports() []guest.Port { return []guest.Port{{Proto: guest.UDP, Num: 20220}} }

func (t *tinydtlsServer) Init(env *guest.Env) error {
	return env.FS().WriteFile("/etc/tinydtls.psk", []byte("client:secret\n"))
}

func (t *tinydtlsServer) OnConnect(env *guest.Env, c *guest.Conn) {
	env.Cov(loc(dtlsNS, 1))
	t.Cookies.Set(c.ID, 0)
	t.Epochs.Set(c.ID, 0)
}

func (t *tinydtlsServer) OnDisconnect(env *guest.Env, c *guest.Conn) {
	t.Cookies.Delete(c.ID)
	t.Epochs.Delete(c.ID)
}

func (t *tinydtlsServer) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	env.Work(45 * time.Microsecond)
	// DTLS record: type(1) version(2) epoch(2) seq(6) len(2) body
	if len(data) < 13 {
		env.Cov(loc(dtlsNS, 2))
		return
	}
	recType := data[0]
	epoch := int(binary.BigEndian.Uint16(data[3:]))
	covByte(env, dtlsNS, 3, recType)
	if epoch != t.Epochs.Get(c.ID) {
		env.Cov(loc(dtlsNS, 4)) // wrong epoch: silently dropped
		return
	}
	body := data[13:]

	switch recType {
	case 22: // handshake
		if len(body) < 12 {
			env.Cov(loc(dtlsNS, 5))
			return
		}
		hsType := body[0]
		covByte(env, dtlsNS, 6, hsType)
		frag := body[12:]
		switch hsType {
		case 1: // ClientHello
			env.Cov(loc(dtlsNS, 7))
			// version(2) random(32) sid cookie suites...
			if len(frag) < 35 {
				env.Cov(loc(dtlsNS, 8))
				return
			}
			sidLen := int(frag[34])
			off := 35 + sidLen
			if off >= len(frag) {
				env.Cov(loc(dtlsNS, 9))
				return
			}
			cookieLen := int(frag[off])
			if cookieLen > len(frag)-off-1 {
				// The Table 1 crash: cookie length unchecked against
				// the datagram boundary.
				env.Cov(loc(dtlsNS, 10))
				env.Crash(guest.CrashSegfault,
					"tinydtls: cookie length %d exceeds datagram, OOB read in dtls_verify_peer", cookieLen)
			}
			if cookieLen == 0 {
				env.Cov(loc(dtlsNS, 11)) // no cookie: send HelloVerifyRequest
				t.Cookies.Set(c.ID, 1)
				env.Send(c, []byte{22, 254, 253, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 0, 0})
			} else if t.Cookies.Get(c.ID) == 1 {
				env.Cov(loc(dtlsNS, 12)) // cookie echo accepted
				t.Cookies.Set(c.ID, 2)
				env.Send(c, []byte{22, 254, 253, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2})
			} else {
				env.Cov(loc(dtlsNS, 13)) // cookie without verify request
			}
		case 16: // ClientKeyExchange
			if t.Cookies.Get(c.ID) != 2 {
				env.Cov(loc(dtlsNS, 14))
				return
			}
			env.Cov(loc(dtlsNS, 15))
			covClass(env, dtlsNS, 16, len(frag))
			t.Cookies.Set(c.ID, 3)
		case 20: // Finished
			if t.Cookies.Get(c.ID) == 3 && t.Epochs.Get(c.ID) == 1 {
				env.Cov(loc(dtlsNS, 17))
				env.Send(c, []byte{22, 254, 253, 0, 1, 0, 0, 0, 0, 0, 0, 20})
			} else {
				env.Cov(loc(dtlsNS, 18))
			}
		default:
			env.Cov(loc(dtlsNS, 19))
		}
	case 20: // change cipher spec
		env.Cov(loc(dtlsNS, 20))
		if t.Cookies.Get(c.ID) == 3 {
			t.Epochs.Set(c.ID, 1)
			env.Cov(loc(dtlsNS, 21))
		}
	case 21: // alert
		env.Cov(loc(dtlsNS, 22))
		if len(body) >= 2 {
			covByte(env, dtlsNS, 23, body[1])
		}
	case 23: // application data
		if t.Epochs.Get(c.ID) == 1 {
			env.Cov(loc(dtlsNS, 24))
			env.Send(c, data[:13])
		} else {
			env.Cov(loc(dtlsNS, 25)) // plaintext appdata: drop
		}
	default:
		env.Cov(loc(dtlsNS, 26))
	}
}

func (t *tinydtlsServer) SaveState(w *guest.StateWriter) {
	w.IntTable(&t.Cookies)
	w.IntTable(&t.Epochs)
}

func (t *tinydtlsServer) LoadState(r *guest.StateReader) {
	r.IntTable(&t.Cookies)
	r.IntTable(&t.Epochs)
}

// dtlsRecord frames a DTLS record at epoch 0.
func dtlsRecord(recType byte, body []byte) []byte {
	rec := []byte{recType, 254, 253, 0, 0, 0, 0, 0, 0, 0, 0}
	rec = binary.BigEndian.AppendUint16(rec, uint16(len(body)))
	return append(rec, body...)
}

// dtlsClientHello builds a handshake ClientHello with the given cookie.
func dtlsClientHello(cookie []byte) []byte {
	frag := []byte{254, 253}
	frag = append(frag, make([]byte, 32)...) // random
	frag = append(frag, 0)                   // sid len
	frag = append(frag, byte(len(cookie)))
	frag = append(frag, cookie...)
	hs := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	return dtlsRecord(22, append(hs, frag...))
}

func init() {
	port := guest.Port{Proto: guest.UDP, Num: 20220}
	Register(&Info{
		Name: "tinydtls",
		Port: port,
		New:  func() guest.Target { return &tinydtlsServer{} },
		Seeds: func(s *spec.Spec) []*spec.Input {
			con, _ := s.NodeByName("connect_udp_20220")
			pkt, _ := s.NodeByName("packet")
			in := spec.NewInput(spec.Op{Node: con})
			for _, p := range [][]byte{
				dtlsClientHello(nil),
				dtlsClientHello([]byte{1, 2, 3, 4}),
				dtlsRecord(22, append([]byte{16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte("psk-identity")...)),
				dtlsRecord(20, []byte{1}),
			} {
				in.Ops = append(in.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: p})
			}
			return []*spec.Input{in}
		},
		Dict: [][]byte{
			dtlsClientHello(nil), dtlsRecord(20, []byte{1}), dtlsRecord(21, []byte{2, 0}),
			{22, 254, 253}, {1}, {16}, {20}, {0xFF},
		},
		Startup: 30 * time.Millisecond, Cleanup: 20 * time.Millisecond,
		ServerWait:   40 * time.Millisecond,
		DesockCompat: false,
	})
}
