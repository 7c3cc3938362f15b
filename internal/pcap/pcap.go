// Package pcap implements a minimal libpcap-format reader/writer plus the
// flow extraction and packet-boundary dissection Nyx-Net's seed pipeline
// needs (§4.4): network captures become sequences of logical packets, which
// package builder turns into bytecode seeds.
//
// Only what the seed pipeline requires is implemented: classic pcap files
// (magic 0xa1b2c3d4, microsecond timestamps), Ethernet link type, IPv4,
// TCP and UDP. The writer synthesizes well-formed frames so tests and
// examples can fabricate captures without external tools.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Link-layer and protocol constants.
const (
	magicLE      = 0xa1b2c3d4
	linkEthernet = 1
	etherIPv4    = 0x0800
	protoTCP     = 6
	protoUDP     = 17
	// maxFrame is the longest frame Read accepts and the snapshot length
	// Write declares: libpcap's maximum.
	maxFrame = 262144
)

// Packet is one captured frame's transport payload plus addressing.
type Packet struct {
	TS      time.Duration // capture timestamp relative to epoch
	Proto   string        // "tcp" or "udp"
	SrcIP   [4]byte
	DstIP   [4]byte
	SrcPort int
	DstPort int
	Seq     uint32 // TCP sequence number (0 for UDP)
	Data    []byte // transport payload
}

// ErrBadCapture is wrapped by all parse failures.
var ErrBadCapture = errors.New("pcap: malformed capture")

// Read parses a classic pcap stream, returning the TCP/UDP packets that
// carry payload. Frames it cannot parse (non-IPv4, truncated) are skipped,
// as real capture tooling does. A frame longer than the capture's snapshot
// length (when the header gives one) or than maxFrame, or a timestamp whose
// microsecond field is a second or more, makes the capture malformed. Frame
// bodies are read into one buffer reused across frames, so a length that
// claims more bytes than arrive costs at most one maxFrame buffer.
func Read(r io.Reader) ([]Packet, error) {
	var gh [24]byte
	if _, err := io.ReadFull(r, gh[:]); err != nil {
		return nil, fmt.Errorf("%w: global header: %v", ErrBadCapture, err)
	}
	if binary.LittleEndian.Uint32(gh[0:]) != magicLE {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrBadCapture, binary.LittleEndian.Uint32(gh[0:]))
	}
	if lt := binary.LittleEndian.Uint32(gh[20:]); lt != linkEthernet {
		return nil, fmt.Errorf("%w: unsupported link type %d", ErrBadCapture, lt)
	}
	limit := uint32(maxFrame)
	if snaplen := binary.LittleEndian.Uint32(gh[16:]); snaplen != 0 && snaplen < limit {
		limit = snaplen
	}
	var out []Packet
	var frame []byte
	for {
		var ph [16]byte
		if _, err := io.ReadFull(r, ph[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("%w: packet header: %v", ErrBadCapture, err)
		}
		sec := binary.LittleEndian.Uint32(ph[0:])
		usec := binary.LittleEndian.Uint32(ph[4:])
		incl := binary.LittleEndian.Uint32(ph[8:])
		if incl > limit {
			return nil, fmt.Errorf("%w: frame length %d exceeds the snapshot length %d", ErrBadCapture, incl, limit)
		}
		if usec >= 1e6 {
			return nil, fmt.Errorf("%w: timestamp microseconds %d out of range", ErrBadCapture, usec)
		}
		if uint32(cap(frame)) < incl {
			frame = make([]byte, incl)
		}
		frame = frame[:incl]
		if _, err := io.ReadFull(r, frame); err != nil {
			return nil, fmt.Errorf("%w: frame body: %v", ErrBadCapture, err)
		}
		pkt, ok := parseFrame(frame)
		if !ok {
			continue
		}
		pkt.TS = time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond
		out = append(out, pkt)
	}
}

// parseFrame decodes Ethernet/IPv4/{TCP,UDP}; ok=false for frames to skip.
func parseFrame(f []byte) (Packet, bool) {
	var p Packet
	if len(f) < 14+20 {
		return p, false
	}
	if binary.BigEndian.Uint16(f[12:]) != etherIPv4 {
		return p, false
	}
	ip := f[14:]
	if ip[0]>>4 != 4 {
		return p, false
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < 20 || len(ip) < ihl {
		return p, false
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:]))
	if totalLen < ihl || totalLen > len(ip) {
		return p, false
	}
	copy(p.SrcIP[:], ip[12:16])
	copy(p.DstIP[:], ip[16:20])
	l4 := ip[ihl:totalLen]
	switch ip[9] {
	case protoTCP:
		if len(l4) < 20 {
			return p, false
		}
		doff := int(l4[12]>>4) * 4
		if doff < 20 || doff > len(l4) {
			return p, false
		}
		p.Proto = "tcp"
		p.SrcPort = int(binary.BigEndian.Uint16(l4[0:]))
		p.DstPort = int(binary.BigEndian.Uint16(l4[2:]))
		p.Seq = binary.BigEndian.Uint32(l4[4:])
		p.Data = append([]byte(nil), l4[doff:]...)
	case protoUDP:
		if len(l4) < 8 {
			return p, false
		}
		p.Proto = "udp"
		p.SrcPort = int(binary.BigEndian.Uint16(l4[0:]))
		p.DstPort = int(binary.BigEndian.Uint16(l4[2:]))
		p.Data = append([]byte(nil), l4[8:]...)
	default:
		return p, false
	}
	if len(p.Data) == 0 {
		return p, false // pure ACKs etc.
	}
	return p, true
}

// Write emits pkts as a classic pcap file, synthesizing Ethernet/IPv4
// framing. TCP sequence numbers are taken from the packets (the writer does
// not model handshakes; captures are "local" in the paper's sense). A packet
// whose payload does not fit one IPv4 packet is an error.
func Write(w io.Writer, pkts []Packet) error {
	var gh [24]byte
	binary.LittleEndian.PutUint32(gh[0:], magicLE)
	binary.LittleEndian.PutUint16(gh[4:], 2) // version 2.4
	binary.LittleEndian.PutUint16(gh[6:], 4)
	binary.LittleEndian.PutUint32(gh[16:], maxFrame) // snaplen
	binary.LittleEndian.PutUint32(gh[20:], linkEthernet)
	if _, err := w.Write(gh[:]); err != nil {
		return err
	}
	for i := range pkts {
		frame, err := buildFrame(&pkts[i])
		if err != nil {
			return err
		}
		var ph [16]byte
		binary.LittleEndian.PutUint32(ph[0:], uint32(pkts[i].TS/time.Second))
		binary.LittleEndian.PutUint32(ph[4:], uint32((pkts[i].TS%time.Second)/time.Microsecond))
		binary.LittleEndian.PutUint32(ph[8:], uint32(len(frame)))
		binary.LittleEndian.PutUint32(ph[12:], uint32(len(frame)))
		if _, err := w.Write(ph[:]); err != nil {
			return err
		}
		if _, err := w.Write(frame); err != nil {
			return err
		}
	}
	return nil
}

func buildFrame(p *Packet) ([]byte, error) {
	var l4 []byte
	switch p.Proto {
	case "tcp":
		l4 = make([]byte, 20+len(p.Data))
		binary.BigEndian.PutUint16(l4[0:], uint16(p.SrcPort))
		binary.BigEndian.PutUint16(l4[2:], uint16(p.DstPort))
		binary.BigEndian.PutUint32(l4[4:], p.Seq)
		l4[12] = 5 << 4 // data offset 20
		l4[13] = 0x18   // PSH|ACK
		copy(l4[20:], p.Data)
	case "udp":
		l4 = make([]byte, 8+len(p.Data))
		binary.BigEndian.PutUint16(l4[0:], uint16(p.SrcPort))
		binary.BigEndian.PutUint16(l4[2:], uint16(p.DstPort))
		binary.BigEndian.PutUint16(l4[4:], uint16(8+len(p.Data)))
		copy(l4[8:], p.Data)
	default:
		return nil, fmt.Errorf("pcap: unknown proto %q", p.Proto)
	}
	if 20+len(l4) > 0xffff {
		return nil, fmt.Errorf("pcap: %d-byte %s payload does not fit one IPv4 packet", len(p.Data), p.Proto)
	}
	ip := make([]byte, 20+len(l4))
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:], uint16(len(ip)))
	ip[8] = 64 // TTL
	if p.Proto == "tcp" {
		ip[9] = protoTCP
	} else {
		ip[9] = protoUDP
	}
	copy(ip[12:16], p.SrcIP[:])
	copy(ip[16:20], p.DstIP[:])
	copy(ip[20:], l4)
	frame := make([]byte, 14+len(ip))
	binary.BigEndian.PutUint16(frame[12:], etherIPv4)
	copy(frame[14:], ip)
	return frame, nil
}

// Flow is the client→server half of one conversation: the logical packets
// a fuzzer should replay, in order.
type Flow struct {
	Proto      string
	ClientPort int
	ServerPort int
	Messages   [][]byte
}

// ExtractFlows groups packets by (client, server) pair and returns the
// client→server payloads of each conversation against serverPort, ordered
// by capture time. Each TCP segment is one logical packet — the paper's
// observation that local captures preserve send() boundaries (§5.4).
func ExtractFlows(pkts []Packet, serverPort int) []Flow {
	type key struct {
		proto string
		ip    [4]byte
		port  int
	}
	var order []key
	byKey := make(map[key]*Flow)
	for _, p := range pkts {
		if p.DstPort != serverPort {
			continue
		}
		k := key{p.Proto, p.SrcIP, p.SrcPort}
		f, ok := byKey[k]
		if !ok {
			f = &Flow{Proto: p.Proto, ClientPort: p.SrcPort, ServerPort: serverPort}
			byKey[k] = f
			order = append(order, k)
		}
		f.Messages = append(f.Messages, p.Data)
	}
	out := make([]Flow, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	return out
}

// Dissector re-splits a reassembled byte stream into logical packets.
// AFLnet-style protocol-specific boundary detection (§4.4): "one of the
// more common packet boundary dissectors uses the CRLF newline sequence".
type Dissector func(stream []byte) [][]byte

// SplitCRLF splits after each CRLF, keeping the delimiter with the message.
func SplitCRLF(stream []byte) [][]byte {
	var out [][]byte
	start := 0
	for i := 0; i+1 < len(stream); i++ {
		if stream[i] == '\r' && stream[i+1] == '\n' {
			out = append(out, append([]byte(nil), stream[start:i+2]...))
			start = i + 2
			i++
		}
	}
	if start < len(stream) {
		out = append(out, append([]byte(nil), stream[start:]...))
	}
	return out
}

// SplitLengthPrefix16 splits a stream of big-endian u16-length-prefixed
// records (common in binary protocols such as DNS-over-TCP and DICOM).
// Malformed tails are emitted as a final message.
func SplitLengthPrefix16(stream []byte) [][]byte {
	var out [][]byte
	off := 0
	for off+2 <= len(stream) {
		n := int(binary.BigEndian.Uint16(stream[off:]))
		if off+2+n > len(stream) {
			break
		}
		out = append(out, append([]byte(nil), stream[off:off+2+n]...))
		off += 2 + n
	}
	if off < len(stream) {
		out = append(out, append([]byte(nil), stream[off:]...))
	}
	return out
}

// Resplit reassembles a flow's messages and re-splits them with d.
func (f *Flow) Resplit(d Dissector) [][]byte {
	var stream []byte
	for _, m := range f.Messages {
		stream = append(stream, m...)
	}
	return d(stream)
}
