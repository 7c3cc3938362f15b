package targets

import (
	"encoding/binary"
	"time"

	"repro/internal/guest"
	"repro/internal/spec"
)

// opensslServer models the openssl s_server TLS front end: record layer +
// handshake parsing with a huge negotiation surface (versions, cipher
// suites, extensions) — the largest coverage space in Table 2. No seeded
// crash.
type opensslServer struct {
	HSState guest.Table[int] // 0 none, 1 hello'd, 2 keyex, 3 finished
	Resumes int
	Alerts  int
}

const tlsNS = 11

// TLS record types.
const (
	recChangeCipher = 20
	recAlert        = 21
	recHandshake    = 22
	recAppData      = 23
)

func (t *opensslServer) Name() string        { return "openssl" }
func (t *opensslServer) Ports() []guest.Port { return []guest.Port{{Proto: guest.TCP, Num: 4433}} }

func (t *opensslServer) Init(env *guest.Env) error {
	env.Work(2 * time.Millisecond) // load cert + key
	return env.FS().WriteFile("/etc/ssl/server.pem", []byte("-----BEGIN CERTIFICATE-----\nMIIB\n"))
}

func (t *opensslServer) OnConnect(env *guest.Env, c *guest.Conn) {
	env.Cov(loc(tlsNS, 1))
	t.HSState.Set(c.ID, 0)
}

func (t *opensslServer) OnDisconnect(env *guest.Env, c *guest.Conn) {
	t.HSState.Delete(c.ID)
}

func (t *opensslServer) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	env.Work(150 * time.Microsecond)
	if len(data) < 5 {
		env.Cov(loc(tlsNS, 2))
		return
	}
	recType := data[0]
	verMaj, verMin := data[1], data[2]
	recLen := int(binary.BigEndian.Uint16(data[3:]))
	covByte(env, tlsNS, 3, recType)

	// Version dispatch: SSL3.0 .. TLS1.3 each have distinct handling.
	switch {
	case verMaj == 3 && verMin <= 4:
		covToken(env, tlsNS, 4, int(verMin))
	case verMaj == 2:
		env.Cov(loc(tlsNS, 5)) // SSLv2-compat hello path
	default:
		env.Cov(loc(tlsNS, 6))
		t.Alerts++
		env.Send(c, []byte{recAlert, 3, 3, 0, 2, 2, 70}) // protocol_version
		return
	}
	if recLen != len(data)-5 {
		env.Cov(loc(tlsNS, 7)) // fragmented / coalesced record
	}
	body := data[5:]

	switch recType {
	case recHandshake:
		t.handleHandshake(env, c, body)
	case recChangeCipher:
		env.Cov(loc(tlsNS, 8))
		if t.HSState.Get(c.ID) >= 2 {
			env.Cov(loc(tlsNS, 9))
			t.HSState.Set(c.ID, 3)
		}
	case recAlert:
		env.Cov(loc(tlsNS, 10))
		if len(body) >= 2 {
			covByte(env, tlsNS, 11, body[1]) // alert code dispatch
		}
		t.Alerts++
	case recAppData:
		if t.HSState.Get(c.ID) == 3 {
			env.Cov(loc(tlsNS, 12)) // post-handshake data
			env.Send(c, []byte{recAppData, 3, 3, 0, 2, 'o', 'k'})
		} else {
			env.Cov(loc(tlsNS, 13)) // data before handshake: unexpected_message
			env.Send(c, []byte{recAlert, 3, 3, 0, 2, 2, 10})
		}
	default:
		env.Cov(loc(tlsNS, 14))
		env.Send(c, []byte{recAlert, 3, 3, 0, 2, 2, 10})
	}
}

func (t *opensslServer) handleHandshake(env *guest.Env, c *guest.Conn, body []byte) {
	if len(body) < 4 {
		env.Cov(loc(tlsNS, 20))
		return
	}
	hsType := body[0]
	covByte(env, tlsNS, 21, hsType)
	switch hsType {
	case 1: // ClientHello
		env.Cov(loc(tlsNS, 22))
		if len(body) < 38 {
			env.Cov(loc(tlsNS, 23)) // truncated hello
			return
		}
		// Session ID length -> resumption path.
		sidLen := int(body[38-4])
		covClass(env, tlsNS, 24, sidLen)
		if sidLen > 0 {
			env.Cov(loc(tlsNS, 25))
			t.Resumes++
		}
		// Cipher suites: pairs of bytes; each known suite is a branch.
		off := 35 + sidLen
		if off+2 <= len(body) {
			csLen := int(binary.BigEndian.Uint16(body[off:]))
			off += 2
			for i := 0; i+1 < csLen && off+i+1 < len(body) && i < 32; i += 2 {
				suite := binary.BigEndian.Uint16(body[off+i:])
				covToken(env, tlsNS, 26, int(suite&0x3F))
			}
			off += csLen
		}
		// Extensions: type dispatch.
		if off+2 < len(body) {
			off += 1 + int(body[off]) // compression methods
			if off+2 <= len(body) {
				off += 2 // extensions length
				for off+4 <= len(body) {
					extType := binary.BigEndian.Uint16(body[off:])
					extLen := int(binary.BigEndian.Uint16(body[off+2:]))
					if extType < 64 {
						covToken(env, tlsNS, 27, int(extType))
					} else {
						env.Cov(loc(tlsNS, 28)) // GREASE / unknown extension
					}
					off += 4 + extLen
				}
			}
		}
		t.HSState.Set(c.ID, 1)
		env.Send(c, []byte{recHandshake, 3, 3, 0, 4, 2, 0, 0, 0}) // ServerHello
	case 16: // ClientKeyExchange
		if t.HSState.Get(c.ID) != 1 {
			env.Cov(loc(tlsNS, 29)) // out-of-order key exchange
			env.Send(c, []byte{recAlert, 3, 3, 0, 2, 2, 10})
			return
		}
		env.Cov(loc(tlsNS, 30))
		covClass(env, tlsNS, 31, len(body)-4)
		t.HSState.Set(c.ID, 2)
	case 20: // Finished
		if t.HSState.Get(c.ID) == 3 {
			env.Cov(loc(tlsNS, 32))
			env.Send(c, []byte{recHandshake, 3, 3, 0, 4, 20, 0, 0, 0})
		} else {
			env.Cov(loc(tlsNS, 33)) // finished before CCS
		}
	case 11: // Certificate (client cert)
		env.Cov(loc(tlsNS, 34))
	case 0: // HelloRequest from a client: ignored
		env.Cov(loc(tlsNS, 35))
	default:
		env.Cov(loc(tlsNS, 36))
		env.Send(c, []byte{recAlert, 3, 3, 0, 2, 2, 10})
	}
}

func (t *opensslServer) SaveState(w *guest.StateWriter) {
	w.IntTable(&t.HSState)
	w.Int(t.Resumes)
	w.Int(t.Alerts)
}

func (t *opensslServer) LoadState(r *guest.StateReader) {
	r.IntTable(&t.HSState)
	t.Resumes = r.Int()
	t.Alerts = r.Int()
}

// tlsClientHello builds a minimal ClientHello record.
func tlsClientHello(suites []uint16, exts []uint16) []byte {
	hs := []byte{1, 0, 0, 0}             // type + len24 (fixed later informally)
	hs = append(hs, 3, 3)                // client version
	hs = append(hs, make([]byte, 32)...) // random
	hs = append(hs, 0)                   // session id len
	hs = binary.BigEndian.AppendUint16(hs, uint16(len(suites)*2))
	for _, s := range suites {
		hs = binary.BigEndian.AppendUint16(hs, s)
	}
	hs = append(hs, 1, 0) // compression: null
	var extb []byte
	for _, e := range exts {
		extb = binary.BigEndian.AppendUint16(extb, e)
		extb = binary.BigEndian.AppendUint16(extb, 0)
	}
	hs = binary.BigEndian.AppendUint16(hs, uint16(len(extb)))
	hs = append(hs, extb...)
	rec := []byte{recHandshake, 3, 3}
	rec = binary.BigEndian.AppendUint16(rec, uint16(len(hs)))
	return append(rec, hs...)
}

func init() {
	port := guest.Port{Proto: guest.TCP, Num: 4433}
	Register(&Info{
		Name: "openssl",
		Port: port,
		New:  func() guest.Target { return &opensslServer{} },
		Seeds: func(s *spec.Spec) []*spec.Input {
			hello := tlsClientHello([]uint16{0x1301, 0x1302, 0xC02F}, []uint16{0, 10, 13, 16, 43, 51})
			kex := []byte{recHandshake, 3, 3, 0, 6, 16, 0, 0, 2, 0xAB, 0xCD}
			ccs := []byte{recChangeCipher, 3, 3, 0, 1, 1}
			fin := []byte{recHandshake, 3, 3, 0, 4, 20, 0, 0, 0}
			app := []byte{recAppData, 3, 3, 0, 2, 'h', 'i'}
			return []*spec.Input{
				seedSession(s, port, string(hello), string(kex), string(ccs), string(fin), string(app)),
			}
		},
		Dict: [][]byte{
			tlsClientHello([]uint16{0x1301}, []uint16{0}),
			{recHandshake, 3, 3, 0, 6, 16, 0, 0, 2, 0, 0},
			{recChangeCipher, 3, 3, 0, 1, 1},
			{recAlert, 3, 3, 0, 2, 1, 0},
			{recAppData, 3, 3, 0, 1, 'x'},
			{0x13, 0x01}, {0x13, 0x02}, {0xC0, 0x2F}, {0, 10}, {0, 43},
		},
		Startup: 200 * time.Millisecond, Cleanup: 90 * time.Millisecond,
		ServerWait:   130 * time.Millisecond,
		DesockCompat: true,
	})
}
