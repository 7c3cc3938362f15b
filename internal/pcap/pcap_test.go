package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func tcpPkt(srcPort, dstPort int, seq uint32, data string) Packet {
	return Packet{
		Proto:   "tcp",
		SrcIP:   [4]byte{10, 0, 0, 1},
		DstIP:   [4]byte{10, 0, 0, 2},
		SrcPort: srcPort,
		DstPort: dstPort,
		Seq:     seq,
		Data:    []byte(data),
		TS:      time.Duration(seq) * time.Millisecond,
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	pkts := []Packet{
		tcpPkt(40000, 21, 1, "USER anon\r\n"),
		tcpPkt(40000, 21, 12, "PASS x\r\n"),
		{Proto: "udp", SrcIP: [4]byte{10, 0, 0, 3}, DstIP: [4]byte{10, 0, 0, 2},
			SrcPort: 50000, DstPort: 53, Data: []byte("query")},
	}
	var buf bytes.Buffer
	if err := Write(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d packets, want 3", len(got))
	}
	for i := range pkts {
		if got[i].Proto != pkts[i].Proto || got[i].SrcPort != pkts[i].SrcPort ||
			got[i].DstPort != pkts[i].DstPort || !bytes.Equal(got[i].Data, pkts[i].Data) {
			t.Fatalf("packet %d mismatch: %+v vs %+v", i, got[i], pkts[i])
		}
	}
	if got[0].Seq != 1 {
		t.Fatalf("tcp seq lost: %d", got[0].Seq)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a pcap file at all......"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestReadSkipsEmptyPayloads(t *testing.T) {
	pkts := []Packet{tcpPkt(40000, 21, 1, "")} // pure ACK
	var buf bytes.Buffer
	// Write requires data? buildFrame handles empty data fine.
	if err := Write(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty payloads should be skipped, got %d", len(got))
	}
}

func TestExtractFlows(t *testing.T) {
	pkts := []Packet{
		tcpPkt(40000, 21, 1, "USER a\r\n"),
		tcpPkt(21, 40000, 1, "331\r\n"), // server->client: excluded
		tcpPkt(40000, 21, 9, "PASS b\r\n"),
		tcpPkt(41000, 21, 1, "USER c\r\n"), // second client
		tcpPkt(40000, 8080, 1, "GET /"),    // other server port: excluded
	}
	flows := ExtractFlows(pkts, 21)
	if len(flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(flows))
	}
	if len(flows[0].Messages) != 2 || string(flows[0].Messages[0]) != "USER a\r\n" {
		t.Fatalf("flow 0 wrong: %q", flows[0].Messages)
	}
	if flows[1].ClientPort != 41000 || len(flows[1].Messages) != 1 {
		t.Fatalf("flow 1 wrong: %+v", flows[1])
	}
}

func TestSplitCRLF(t *testing.T) {
	got := SplitCRLF([]byte("USER a\r\nPASS b\r\nQUIT"))
	want := []string{"USER a\r\n", "PASS b\r\n", "QUIT"}
	if len(got) != len(want) {
		t.Fatalf("got %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("message %d = %q, want %q", i, got[i], want[i])
		}
	}
	if SplitCRLF(nil) != nil {
		t.Fatal("empty stream should yield nil")
	}
}

func TestSplitLengthPrefix16(t *testing.T) {
	stream := []byte{0, 3, 'a', 'b', 'c', 0, 1, 'x', 0, 9, 'p'} // last record truncated
	got := SplitLengthPrefix16(stream)
	if len(got) != 3 {
		t.Fatalf("got %d records, want 3", len(got))
	}
	if string(got[0]) != "\x00\x03abc" || string(got[1]) != "\x00\x01x" {
		t.Fatalf("records wrong: %q", got)
	}
	if string(got[2]) != "\x00\x09p" {
		t.Fatalf("truncated tail should be emitted raw: %q", got[2])
	}
}

func TestFlowResplit(t *testing.T) {
	f := Flow{Messages: [][]byte{[]byte("USER a\r\nPA"), []byte("SS b\r\n")}}
	got := f.Resplit(SplitCRLF)
	if len(got) != 2 || string(got[0]) != "USER a\r\n" || string(got[1]) != "PASS b\r\n" {
		t.Fatalf("resplit wrong: %q", got)
	}
	one := f.Resplit(SplitNone)
	if len(one) != 1 || string(one[0]) != "USER a\r\nPASS b\r\n" {
		t.Fatalf("SplitNone wrong: %q", one)
	}
}

// capture returns a global header with the given snapshot length followed by
// one packet header claiming incl frame bytes, and no frame body.
func capture(snaplen, incl uint32) []byte {
	b := make([]byte, 40)
	binary.LittleEndian.PutUint32(b[0:], magicLE)
	binary.LittleEndian.PutUint16(b[4:], 2)
	binary.LittleEndian.PutUint16(b[6:], 4)
	binary.LittleEndian.PutUint32(b[16:], snaplen)
	binary.LittleEndian.PutUint32(b[20:], linkEthernet)
	binary.LittleEndian.PutUint32(b[24+8:], incl)
	binary.LittleEndian.PutUint32(b[24+12:], incl)
	return b
}

// hostileCapture is 40 bytes whose one packet header claims a 16 MiB frame,
// under a snapshot length that claims as much.
var hostileCapture = capture(1<<24, 1<<24)

// allocated returns the heap bytes one call of f allocates: the mean over
// allocRuns calls after a warm-up call, at GOMAXPROCS 1 as
// testing.AllocsPerRun measures, so that what the test runner's own
// goroutines allocate meanwhile is spread over every call rather than
// charged to one.
func allocated(f func()) uint64 {
	const allocRuns = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / allocRuns
}

func TestReadRejectsFrameLongerThanMaxFrame(t *testing.T) {
	var err error
	n := allocated(func() { _, err = Read(bytes.NewReader(hostileCapture)) })
	if !errors.Is(err, ErrBadCapture) {
		t.Fatalf("16 MiB frame: err = %v, want ErrBadCapture", err)
	}
	if n > 4096 {
		t.Fatalf("rejecting a 40-byte capture allocated %d bytes", n)
	}
	if _, err := Read(bytes.NewReader(capture(0, maxFrame+1))); !errors.Is(err, ErrBadCapture) {
		t.Fatalf("frame one byte over maxFrame with no snapshot length: err = %v, want ErrBadCapture", err)
	}
}

func TestReadRejectsFrameLongerThanSnaplen(t *testing.T) {
	if _, err := Read(bytes.NewReader(capture(100, 101))); !errors.Is(err, ErrBadCapture) ||
		!strings.Contains(err.Error(), "snapshot length 100") {
		t.Fatalf("frame over the snapshot length: err = %v", err)
	}
	// A frame of exactly the snapshot length passes the bound and fails only
	// for its missing body.
	if _, err := Read(bytes.NewReader(capture(100, 100))); err == nil || !strings.Contains(err.Error(), "frame body") {
		t.Fatalf("frame at the snapshot length: err = %v, want a missing-body error", err)
	}
}

// A frame length the capture does not back with bytes costs one frame buffer
// of at most maxFrame, and frames that do arrive share one buffer.
func TestReadAllocatesOneFrameBuffer(t *testing.T) {
	n := allocated(func() { Read(bytes.NewReader(capture(0, maxFrame))) }) //nolint:errcheck // body missing
	if n > maxFrame+4096 {
		t.Fatalf("a header claiming %d bytes with none behind it allocated %d bytes", maxFrame, n)
	}
	var pkts []Packet
	for i := 0; i < 64; i++ {
		pkts = append(pkts, tcpPkt(40000, 21, uint32(i), strings.Repeat("x", 1000)))
	}
	var buf bytes.Buffer
	if err := Write(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	size := uint64(buf.Len())
	n = allocated(func() { Read(bytes.NewReader(buf.Bytes())) }) //nolint:errcheck // well-formed
	// The payload copies plus the packet slice; a fresh buffer per frame
	// would add another 64 KiB.
	if n > size+16<<10 {
		t.Fatalf("reading a %d-byte capture allocated %d bytes", size, n)
	}
}

func TestReadRejectsMicrosecondsOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Packet{tcpPkt(40000, 21, 1, "USER a\r\n")}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[24+4:], 1e6)
	if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrBadCapture) {
		t.Fatalf("usec = 1e6: err = %v, want ErrBadCapture", err)
	}
}

func TestWriteRejectsPayloadBeyondIPv4Length(t *testing.T) {
	for _, c := range []struct {
		proto  string
		header int
	}{{"tcp", 20}, {"udp", 8}} {
		fits := Packet{Proto: c.proto, DstPort: 21, Data: make([]byte, 0xffff-20-c.header)}
		var buf bytes.Buffer
		if err := Write(&buf, []Packet{fits}); err != nil {
			t.Fatalf("%s: largest payload: %v", c.proto, err)
		}
		got, err := Read(&buf)
		if err != nil || len(got) != 1 || len(got[0].Data) != len(fits.Data) {
			t.Fatalf("%s: largest payload did not round-trip: %d packets, err %v", c.proto, len(got), err)
		}
		over := fits
		over.Data = make([]byte, len(fits.Data)+1)
		if err := Write(io.Discard, []Packet{over}); err == nil {
			t.Fatalf("%s: a payload one byte over the IPv4 total length was written", c.proto)
		}
	}
}

// FuzzPcapRead feeds Read arbitrary captures: it never panics, and whatever it
// accepts survives a Write and a second Read unchanged.
func FuzzPcapRead(f *testing.F) {
	for _, pkts := range [][]Packet{
		{
			tcpPkt(40000, 21, 1, "USER anon\r\n"),
			tcpPkt(40000, 21, 12, "PASS x\r\n"),
			{Proto: "udp", SrcIP: [4]byte{10, 0, 0, 3}, DstIP: [4]byte{10, 0, 0, 2},
				SrcPort: 50000, DstPort: 53, Data: []byte("query")},
		},
		{
			{Proto: "tcp", SrcIP: [4]byte{10, 0, 0, 1}, SrcPort: 40000, DstPort: 21, Data: []byte("USER anon\r\nPASS")},
			{Proto: "tcp", SrcIP: [4]byte{10, 0, 0, 1}, SrcPort: 40000, DstPort: 21, Data: []byte(" x\r\n")},
			{Proto: "tcp", SrcIP: [4]byte{10, 0, 0, 9}, SrcPort: 41000, DstPort: 21, Data: []byte("QUIT\r\n")},
		},
		{{Proto: "udp", SrcIP: [4]byte{10, 0, 0, 1}, SrcPort: 40000, DstPort: 53,
			Data: []byte{0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3, 'w', 'w', 'w', 0, 0, 1, 0, 1}}},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, pkts); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(hostileCapture)
	f.Fuzz(func(t *testing.T, data []byte) {
		pkts, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, pkts); err != nil {
			t.Fatalf("Write of what Read accepted: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of what Write wrote: %v", err)
		}
		if !reflect.DeepEqual(again, pkts) {
			t.Fatalf("round trip changed the packets:\n got %+v\nwant %+v", again, pkts)
		}
	})
}
