package targets

import (
	"testing"

	"repro/internal/core"
	"repro/internal/guest"
)

// siteRun is one hand-built session that reaches a fault site.
type siteRun struct {
	asan     bool
	payloads [][]byte
}

// repeat returns n copies of p.
func repeat(p []byte, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = p
	}
	return out
}

// dtlsCookieClaim is a ClientHello, after a plain one, whose cookie length
// byte claims n bytes the datagram does not hold.
func dtlsCookieClaim(n byte) [][]byte {
	hello := dtlsClientHello([]byte{1, 2})
	hello[len(hello)-3] = n
	return [][]byte{dtlsClientHello(nil), hello}
}

// dnsLabel is a query whose first label claims length n.
func dnsLabel(n byte) [][]byte {
	q := dnsQuery(1, "host")
	q[12] = n
	return [][]byte{q}
}

// TestCrashSiteBucketTable reaches every fault site of the target suite —
// the seven direct Env.Crash calls and the seven call sites of the Alloc,
// CorruptMemory and NullDeref helpers — with hand-built inputs, and holds
// each to its bucket: every input crashes with its site's core.CrashID, two
// inputs that reach one site with different values are one bucket with two
// messages, and the fourteen sites are fourteen buckets.
func TestCrashSiteBucketTable(t *testing.T) {
	bad := dicomPDU(pduData, []byte{0, 0, 0, 2, 1, 0x02})
	bad[2], bad[3], bad[4], bad[5] = 0, 0, 0x40, 0 // a declared length larger than the body
	junk := []byte("XYZZY garbage\r\n")
	stair := [][]byte{
		[]byte("USER a\r\n"), []byte("PASS b\r\n"), []byte("SITE UTIME x\r\n"), []byte("SITE CHMOD x\r\n"),
		[]byte("SITE CHGRP x\r\n"), []byte("SITE SYMLINK x\r\n"), []byte("MFMT 20260612 f\r\n"),
	}
	necko := guest.Port{Proto: guest.Unix, Num: 3}
	cases := []struct {
		target     string
		port       guest.Port // the zero Port is the target's own
		allocLimit int64
		want       core.CrashID
		runs       []siteRun
	}{
		// The direct sites: the format string is the site.
		{target: "tinydtls", want: core.CrashID{Kind: guest.CrashSegfault,
			Site: "tinydtls: cookie length %d exceeds datagram, OOB read in dtls_verify_peer"},
			runs: []siteRun{{payloads: dtlsCookieClaim(200)}, {payloads: dtlsCookieClaim(100)}}},
		{target: "live555", want: core.CrashID{Kind: guest.CrashSegfault,
			Site: "live555: truncated %%-escape in URL read past end"},
			runs: []siteRun{{payloads: [][]byte{[]byte("DESCRIBE rtsp://h/test.264%Z RTSP/1.0\r\nCSeq: 1\r\n\r\n")}}}},
		{target: "pure-ftpd", want: core.CrashID{Kind: guest.CrashOOMInternal,
			Site: "%s: internal allocation limit exceeded (%d bytes leaked)"},
			runs: []siteRun{{payloads: repeat(junk, 900)}}},
		{target: "proftpd", want: core.CrashID{Kind: guest.CrashSegfault,
			Site: "%s: MFMT facts parser reads freed pathname after SITE sequence"},
			runs: []siteRun{{payloads: stair}}},
		{target: "mysql-client", want: core.CrashID{Kind: guest.CrashSegfault,
			Site: "mysql-client: unterminated server version string, OOB read in greeting parser"},
			runs: []siteRun{{payloads: [][]byte{mysqlPacket(0, []byte("\x0a8.0.36-unterminated"))}}}},
		{target: "dnsmasq", want: core.CrashID{Kind: guest.CrashSegfault,
			Site: "dnsmasq: label length %d overruns extract buffer"},
			runs: []siteRun{{payloads: dnsLabel(100)}, {payloads: dnsLabel(70)}}},
		{target: "exim", want: core.CrashID{Kind: guest.CrashSegfault,
			Site: "exim: header continuation without preceding header dereferences NULL chain"},
			runs: []siteRun{{payloads: [][]byte{[]byte("EHLO h\r\n"), []byte("MAIL FROM:<a@b>\r\n"),
				[]byte("RCPT TO:<c@d>\r\n"), []byte("DATA\r\n"), []byte(" leading continuation\r\n")}}}},
		// The helpers' call sites: the caller's argument is the site.
		{target: "pure-ftpd", allocLimit: 3 * 64 << 10, want: core.CrashID{Kind: guest.CrashOOM,
			Site: "ftp: unknown-command reply buffer"},
			runs: []siteRun{{payloads: repeat(junk, 4)}}},
		{target: "lighttpd", want: core.CrashID{Kind: guest.CrashMallocUnder,
			Site: "lighttpd: request body remaining length"},
			runs: []siteRun{
				{payloads: [][]byte{[]byte("POST /f HTTP/1.1\r\nHost: h\r\nContent-Length: 1\r\n\r\nmuch-longer-body")}},
				{payloads: [][]byte{[]byte("POST /f HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\nmuch-longer-body")}},
			}},
		{target: "lighttpd", want: core.CrashID{Kind: guest.CrashMallocUnder,
			Site: "lighttpd: negative Content-Length"},
			runs: []siteRun{
				{payloads: [][]byte{[]byte("POST /f HTTP/1.1\r\nHost: h\r\nContent-Length: -5\r\n\r\n")}},
				{payloads: [][]byte{[]byte("PUT /f HTTP/1.1\r\nHost: h\r\nContent-Length: -7\r\n\r\n")}},
			}},
		{target: "dcmtk", want: core.CrashID{Kind: guest.CrashHeapCorruption,
			Site: "dcmtk: PDU reassembly trailer"},
			runs: []siteRun{
				{asan: true, payloads: [][]byte{dicomAssociateRQ(), bad}},
				{payloads: append([][]byte{dicomAssociateRQ()}, repeat(bad, 8)...)},
			}},
		{target: "firefox-ipc", want: core.CrashID{Kind: guest.CrashNullDeref, Site: "ActorLifecycle::Destroy"},
			runs: []siteRun{{payloads: [][]byte{ipcMsg(1, 9, 0, nil)}}}},
		{target: "firefox-ipc", want: core.CrashID{Kind: guest.CrashNullDeref, Site: "SharedMemory::Map"},
			runs: []siteRun{{payloads: [][]byte{ipcMsg(2, 9, 0, []byte{1})}}}},
		{target: "firefox-ipc", port: necko, want: core.CrashID{Kind: guest.CrashNullDeref, Site: "HttpChannelParent::Redirect"},
			runs: []siteRun{{payloads: append(repeat(ipcMsg(0, 1, 1, nil), 3), ipcMsg(4, 1, 0, []byte{0xFE}))}}},
	}
	var all core.CrashList
	for _, c := range cases {
		var bucket core.CrashList
		var msgs []string
		for i, r := range c.runs {
			inst, err := Launch(c.target, LaunchConfig{Asan: r.asan})
			if err != nil {
				t.Fatal(err)
			}
			inst.K.AllocLimit = c.allocLimit
			port := c.port
			if port == (guest.Port{}) {
				port = inst.Info.Port
			}
			res := runSession(t, inst, port, r.payloads...)
			if !res.Crashed {
				t.Fatalf("%s run %d does not crash (want %+v)", c.target, i, c.want)
			}
			cr := core.Crash{CrashError: *res.Crash}
			if cr.ID() != c.want {
				t.Fatalf("%s run %d crashed at %+v, want %+v", c.target, i, cr.ID(), c.want)
			}
			bucket.AddCrash(cr)
			msgs = append(msgs, cr.Msg)
		}
		if len(bucket.Crashes) != 1 {
			t.Fatalf("%+v: %d runs made %d buckets, want 1", c.want, len(c.runs), len(bucket.Crashes))
		}
		if len(msgs) == 2 && msgs[0] == msgs[1] {
			t.Fatalf("%+v: both runs reported %q, want the values to differ", c.want, msgs[0])
		}
		if !all.AddCrash(bucket.Crashes[0]) {
			t.Fatalf("%+v is the bucket of another site", c.want)
		}
	}
	if len(all.Crashes) != 14 {
		t.Fatalf("%d sites make %d buckets", len(cases), len(all.Crashes))
	}
}
