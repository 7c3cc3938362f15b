package targets

import (
	"encoding/binary"
	"time"

	"repro/internal/guest"
	"repro/internal/spec"
)

// dnsmasqServer models dnsmasq's DNS front end: a binary, UDP, datagram
// protocol — the packet-boundary-sensitive case §3.3 calls out ("packet
// boundaries are indeed semantic information" for UDP). The crash all
// fuzzers find (Table 1) is a shallow label-length validation bug.
type dnsmasqServer struct {
	Queries int
	Cache   guest.Table[int] // qtype -> hits, models the answer cache
}

const dnsNS = 6

func (t *dnsmasqServer) Name() string        { return "dnsmasq" }
func (t *dnsmasqServer) Ports() []guest.Port { return []guest.Port{{Proto: guest.UDP, Num: 53}} }

func (t *dnsmasqServer) Init(env *guest.Env) error {
	return env.FS().WriteFile("/etc/hosts", []byte("10.0.0.1 router.lan\n"))
}

func (t *dnsmasqServer) OnConnect(env *guest.Env, c *guest.Conn) {
	env.Cov(loc(dnsNS, 1))
}

func (t *dnsmasqServer) OnDisconnect(env *guest.Env, c *guest.Conn) {}

func (t *dnsmasqServer) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	env.Work(35 * time.Microsecond)
	t.Queries++
	if len(data) < 12 {
		env.Cov(loc(dnsNS, 2)) // short datagram path
		return                 // silently dropped, like real dnsmasq
	}
	flags := binary.BigEndian.Uint16(data[2:])
	qd := binary.BigEndian.Uint16(data[4:])

	opcode := (flags >> 11) & 0xF
	covToken(env, dnsNS, 3, int(opcode))
	if flags&0x8000 != 0 {
		env.Cov(loc(dnsNS, 4)) // response bit set on a query: drop path
		return
	}
	if qd == 0 {
		env.Cov(loc(dnsNS, 5))
		env.Send(c, t.reply(data, 1)) // FORMERR
		return
	}
	if qd > 1 {
		env.Cov(loc(dnsNS, 6)) // multi-question path
	}

	// Parse the first question's label chain.
	off := 12
	labels := 0
	for off < len(data) {
		l := int(data[off])
		if l == 0 {
			env.Cov(loc(dnsNS, 7)) // clean terminator
			off++
			break
		}
		if l&0xC0 == 0xC0 {
			env.Cov(loc(dnsNS, 8)) // compression pointer in question
			off += 2
			break
		}
		if l > 63 {
			// The Table 1 crash: the label-length check misses values
			// 64..127 and the copy overruns a stack buffer.
			env.Cov(loc(dnsNS, 9))
			env.Crash(guest.CrashSegfault, "dnsmasq: label length %d overruns extract buffer", l)
		}
		covClass(env, dnsNS, 10, l)
		labels++
		if labels > 8 {
			env.Cov(loc(dnsNS, 11)) // name-too-long path
			env.Send(c, t.reply(data, 1))
			return
		}
		off += 1 + l
	}
	if off+4 <= len(data) {
		qtype := int(binary.BigEndian.Uint16(data[off:]))
		if qtype < 64 {
			covToken(env, dnsNS, 12, qtype)
		} else {
			env.Cov(loc(dnsNS, 13))
		}
		if t.Cache.Add(qtype&0x3F, 1) > 1 {
			env.Cov(loc(dnsNS, 14)) // cache-hit path
		}
	} else {
		env.Cov(loc(dnsNS, 15)) // truncated question
	}
	env.Send(c, t.reply(data, 0))
}

// reply echoes the query ID with the response bit and an rcode.
func (t *dnsmasqServer) reply(q []byte, rcode byte) []byte {
	r := make([]byte, 12)
	copy(r, q[:2])
	r[2] = 0x80
	r[3] = rcode
	return r
}

func (t *dnsmasqServer) SaveState(w *guest.StateWriter) {
	w.Int(t.Queries)
	w.IntTable(&t.Cache)
}

func (t *dnsmasqServer) LoadState(r *guest.StateReader) {
	t.Queries = r.Int()
	r.IntTable(&t.Cache)
}

// dnsQuery builds a well-formed A query for the given name labels.
func dnsQuery(id uint16, labels ...string) []byte {
	b := make([]byte, 12)
	binary.BigEndian.PutUint16(b[0:], id)
	binary.BigEndian.PutUint16(b[2:], 0x0100) // RD
	binary.BigEndian.PutUint16(b[4:], 1)      // QDCOUNT
	for _, l := range labels {
		b = append(b, byte(len(l)))
		b = append(b, l...)
	}
	b = append(b, 0, 0, 1, 0, 1) // root, A, IN
	return b
}

func init() {
	port := guest.Port{Proto: guest.UDP, Num: 53}
	Register(&Info{
		Name: "dnsmasq",
		Port: port,
		New:  func() guest.Target { return &dnsmasqServer{} },
		Seeds: func(s *spec.Spec) []*spec.Input {
			conName := "connect_udp_53"
			con, _ := s.NodeByName(conName)
			pkt, _ := s.NodeByName("packet")
			in := spec.NewInput(spec.Op{Node: con})
			for i, q := range [][]byte{
				dnsQuery(1, "router", "lan"),
				dnsQuery(2, "www", "example", "com"),
				dnsQuery(3, "a"),
				dnsQuery(4, "very-long-label-here", "example", "com"),
			} {
				_ = i
				in.Ops = append(in.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: q})
			}
			return []*spec.Input{in}
		},
		Dict: [][]byte{
			dnsQuery(9, "router", "lan"), {0, 1}, {0, 12}, {0xC0, 0x0C}, {63}, {0},
		},
		Startup: 35 * time.Millisecond, Cleanup: 25 * time.Millisecond,
		ServerWait:   50 * time.Millisecond,
		DesockCompat: true, // the paper's Table 2 has an AFL++ number here
	})
}
