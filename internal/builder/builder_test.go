package builder

import (
	"bytes"
	"testing"

	"repro/internal/guest"
	"repro/internal/pcap"
	"repro/internal/spec"
)

var ftpPort = guest.Port{Proto: guest.TCP, Num: 21}

func ftpSpec() *spec.Spec {
	return spec.RawPacketSpec("ftp", []guest.Port{ftpPort})
}

func TestBuilderListing2(t *testing.T) {
	// Mirrors Listing 2: connection, then packets on it.
	s := ftpSpec()
	b := New(s)
	con := b.Connection(ftpPort)
	b.Packet(con, []byte("HTTP/1.1 200 OK"))
	b.Packet(con, []byte("Content-Type: text/html"))
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Ops) != 3 {
		t.Fatalf("ops = %d, want 3", len(in.Ops))
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	if in.Packets(s) != 2 {
		t.Fatalf("packets = %d, want 2", in.Packets(s))
	}
}

// A payload is the caller's again once Packet returns: a seed built by
// reusing one buffer for every packet carries each packet as it was sent.
func TestBuilderCopiesPayloads(t *testing.T) {
	b := New(ftpSpec())
	con := b.Connection(ftpPort)
	buf := []byte("USER anonymous")
	b.Packet(con, buf)
	copy(buf, "PASS anonymous")
	b.Packet(con, buf)
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"USER anonymous", "PASS anonymous"} {
		if got := string(in.Ops[i+1].Data); got != want {
			t.Fatalf("packet %d = %q, want %q", i, got, want)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	s := ftpSpec()

	b := New(s)
	b.Call("nonexistent", nil)
	if _, err := b.Build(); err == nil {
		t.Fatal("unknown node should fail")
	}

	b2 := New(s)
	b2.Call("packet", []byte("x")) // missing connection arg
	if _, err := b2.Build(); err == nil {
		t.Fatal("missing arg should fail")
	}

	b3 := New(s)
	con := b3.Connection(ftpPort)
	b3.Call("close", []byte("payload"), con) // close takes no payload
	if _, err := b3.Build(); err == nil {
		t.Fatal("payload on dataless node should fail")
	}
}

func TestBuilderErrorIsSticky(t *testing.T) {
	s := ftpSpec()
	b := New(s)
	b.Call("nonexistent", nil)
	con := b.Connection(ftpPort) // after error: should not panic
	b.Packet(con, []byte("x"))
	if b.Err() == nil {
		t.Fatal("error should be sticky")
	}
}

func TestFromPCAPEndToEnd(t *testing.T) {
	// Fabricate a capture, write+read it, convert to seeds.
	pkts := []pcap.Packet{
		{Proto: "tcp", SrcIP: [4]byte{10, 0, 0, 1}, SrcPort: 40000, DstPort: 21, Data: []byte("USER anon\r\nPASS")},
		{Proto: "tcp", SrcIP: [4]byte{10, 0, 0, 1}, SrcPort: 40000, DstPort: 21, Data: []byte(" x\r\n")},
		{Proto: "tcp", SrcIP: [4]byte{10, 0, 0, 9}, SrcPort: 41000, DstPort: 21, Data: []byte("QUIT\r\n")},
	}
	var buf bytes.Buffer
	if err := pcap.Write(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	rd, err := pcap.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	s := ftpSpec()
	seeds, err := FromPCAP(s, ftpPort, rd, pcap.SplitCRLF)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 2 {
		t.Fatalf("seeds = %d, want 2", len(seeds))
	}
	// First flow re-split on CRLF: USER line + PASS line => 2 packets.
	if got := seeds[0].Packets(s); got != 2 {
		t.Fatalf("seed 0 packets = %d, want 2", got)
	}
	for i, in := range seeds {
		if err := s.Validate(in); err != nil {
			t.Fatalf("seed %d invalid: %v", i, err)
		}
		// connect first, close last
		if s.Nodes[in.Ops[0].Node].Kind != spec.KindConnect {
			t.Fatalf("seed %d does not start with connect", i)
		}
		if s.Nodes[in.Ops[len(in.Ops)-1].Node].Kind != spec.KindClose {
			t.Fatalf("seed %d does not end with close", i)
		}
	}
	// Seeds survive bytecode round trips.
	got, err := spec.Deserialize(spec.Serialize(seeds[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(got); err != nil {
		t.Fatal(err)
	}
}

func TestFromFlowWithoutDissector(t *testing.T) {
	s := ftpSpec()
	f := &pcap.Flow{Proto: "tcp", Messages: [][]byte{[]byte("a"), []byte("b")}}
	in, err := FromFlow(s, ftpPort, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.Packets(s) != 2 {
		t.Fatalf("packets = %d, want 2 (raw segment boundaries)", in.Packets(s))
	}
}
