package targets

import (
	"encoding/binary"
	"time"

	"repro/internal/guest"
	"repro/internal/spec"
)

// dcmtkServer models DCMTK's storescp: a binary DICOM Upper Layer protocol
// (PDU type + length-prefixed payload). Its Table 1 bug is the interesting
// one: a heap corruption that only ASan surfaces immediately. Without ASan
// the corruption silently accumulates — so a snapshot fuzzer that resets
// state every test case only finds it with ASan, while AFLnet's long-lived
// process accumulates corruption until it faults (the paper's footnote).
type dcmtkServer struct {
	Assoc    guest.Table[int] // conn -> 0 idle, 1 associated
	Presente guest.Table[int] // conn -> accepted presentation contexts
	Stored   int
}

const dicomNS = 9

// DICOM PDU types.
const (
	pduAssociateRQ = 0x01
	pduAssociateAC = 0x02
	pduAssociateRJ = 0x03
	pduData        = 0x04
	pduReleaseRQ   = 0x05
	pduAbort       = 0x07
)

func (t *dcmtkServer) Name() string        { return "dcmtk" }
func (t *dcmtkServer) Ports() []guest.Port { return []guest.Port{{Proto: guest.TCP, Num: 104}} }

func (t *dcmtkServer) Init(env *guest.Env) error {
	return env.FS().WriteFile("/etc/dcmtk/storescp.cfg", []byte("MaxPDU = 16384\n"))
}

func (t *dcmtkServer) OnConnect(env *guest.Env, c *guest.Conn) {
	env.Cov(loc(dicomNS, 1))
	t.Assoc.Set(c.ID, 0)
}

func (t *dcmtkServer) OnDisconnect(env *guest.Env, c *guest.Conn) {
	t.Assoc.Delete(c.ID)
	t.Presente.Delete(c.ID)
}

func (t *dcmtkServer) OnPacket(env *guest.Env, c *guest.Conn, data []byte) {
	env.Work(130 * time.Microsecond)
	if len(data) < 6 {
		env.Cov(loc(dicomNS, 2)) // runt PDU
		return
	}
	pduType := data[0]
	declaredLen := binary.BigEndian.Uint32(data[2:])
	covToken(env, dicomNS, 3, int(pduType&0x0F))

	if int(declaredLen) != len(data)-6 {
		env.Cov(loc(dicomNS, 4)) // length mismatch path
		if declaredLen > uint32(len(data)) && pduType == pduData {
			// The heap corruption: the reassembly buffer is sized from
			// the declared length but filled from the wire. Writing the
			// bookkeeping trailer goes out of bounds — detectable
			// immediately only by ASan.
			env.CorruptMemory("dcmtk: PDU reassembly trailer", 2)
		}
	}

	switch pduType {
	case pduAssociateRQ:
		env.Cov(loc(dicomNS, 5))
		if len(data) < 12 {
			env.Cov(loc(dicomNS, 6))
			env.Send(c, []byte{pduAssociateRJ, 0, 0, 0, 0, 4, 0, 1, 1, 1})
			return
		}
		version := binary.BigEndian.Uint16(data[6:])
		if version != 1 {
			env.Cov(loc(dicomNS, 7)) // unsupported protocol version
			env.Send(c, []byte{pduAssociateRJ, 0, 0, 0, 0, 4, 0, 2, 1, 2})
			return
		}
		// Parse variable items: each {type, 0, len16, data}.
		off := 12
		items := 0
		for off+4 <= len(data) && items < 16 {
			itemType := data[off]
			itemLen := int(binary.BigEndian.Uint16(data[off+2:]))
			covByte(env, dicomNS, 8, itemType)
			covClass(env, dicomNS, 9, itemLen)
			if itemType == 0x20 { // presentation context
				t.Presente.Add(c.ID, 1)
				env.Cov(loc(dicomNS, 10))
			}
			if itemType == 0x10 { // application context
				env.Cov(loc(dicomNS, 11))
			}
			off += 4 + itemLen
			items++
		}
		t.Assoc.Set(c.ID, 1)
		env.Send(c, []byte{pduAssociateAC, 0, 0, 0, 0, 4, 0, 1, 0, 0})
	case pduData:
		if t.Assoc.Get(c.ID) != 1 {
			env.Cov(loc(dicomNS, 12)) // data before association
			env.Send(c, []byte{pduAbort, 0, 0, 0, 0, 4, 0, 0, 0, 2})
			return
		}
		env.Cov(loc(dicomNS, 13))
		if len(data) >= 12 {
			pcID := data[10]
			covByte(env, dicomNS, 14, pcID&0x1F)
			flags := data[11]
			if flags&0x02 != 0 {
				env.Cov(loc(dicomNS, 15)) // last fragment: commit object
				t.Stored++
				env.FS().AppendFile("/srv/dicom/incoming", data[:8]) //nolint:errcheck
			}
			if flags&0x01 != 0 {
				env.Cov(loc(dicomNS, 16)) // command fragment
			}
		}
		env.Send(c, []byte{pduData, 0, 0, 0, 0, 2, 0, 0})
	case pduReleaseRQ:
		env.Cov(loc(dicomNS, 17))
		t.Assoc.Set(c.ID, 0)
		env.Send(c, []byte{0x06, 0, 0, 0, 0, 4, 0, 0, 0, 0})
	case pduAbort:
		env.Cov(loc(dicomNS, 18))
		t.Assoc.Set(c.ID, 0)
	default:
		covByte(env, dicomNS, 19, pduType)
		env.Send(c, []byte{pduAbort, 0, 0, 0, 0, 4, 0, 0, 0, 1})
	}
}

func (t *dcmtkServer) SaveState(w *guest.StateWriter) {
	w.IntTable(&t.Assoc)
	w.IntTable(&t.Presente)
	w.Int(t.Stored)
}

func (t *dcmtkServer) LoadState(r *guest.StateReader) {
	r.IntTable(&t.Assoc)
	r.IntTable(&t.Presente)
	t.Stored = r.Int()
}

// dicomPDU builds a PDU with a correct length field.
func dicomPDU(pduType byte, body []byte) []byte {
	b := make([]byte, 6+len(body))
	b[0] = pduType
	binary.BigEndian.PutUint32(b[2:], uint32(len(body)))
	copy(b[6:], body)
	return b
}

// dicomAssociateRQ builds a minimal associate request.
func dicomAssociateRQ() []byte {
	body := make([]byte, 6)
	binary.BigEndian.PutUint16(body[0:], 1) // version
	// application context item + one presentation context
	body = append(body, 0x10, 0, 0, 4, 'D', 'I', 'C', 'M')
	body = append(body, 0x20, 0, 0, 2, 1, 0)
	return dicomPDU(pduAssociateRQ, body)
}

func init() {
	port := guest.Port{Proto: guest.TCP, Num: 104}
	Register(&Info{
		Name: "dcmtk",
		Port: port,
		New:  func() guest.Target { return &dcmtkServer{} },
		Seeds: func(s *spec.Spec) []*spec.Input {
			con, _ := s.NodeByName("connect_tcp_104")
			pkt, _ := s.NodeByName("packet")
			in := spec.NewInput(spec.Op{Node: con})
			for _, p := range [][]byte{
				dicomAssociateRQ(),
				dicomPDU(pduData, []byte{0, 0, 0, 2, 1, 0x02, 'D', 'A', 'T', 'A'}),
				dicomPDU(pduReleaseRQ, []byte{0, 0, 0, 0}),
			} {
				in.Ops = append(in.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: p})
			}
			return []*spec.Input{in}
		},
		Dict: [][]byte{
			dicomAssociateRQ(), {pduData, 0, 0, 0, 0, 8}, {pduReleaseRQ}, {pduAbort},
			{0x10, 0, 0, 4}, {0x20, 0, 0, 2}, {0xFF, 0xFF, 0xFF, 0xFF},
		},
		Startup: 140 * time.Millisecond, Cleanup: 80 * time.Millisecond,
		ServerWait:   110 * time.Millisecond,
		DesockCompat: false,
	})
}
