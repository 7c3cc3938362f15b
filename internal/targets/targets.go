// Package targets implements the fuzz-target suite of the Nyx-Net
// reproduction: simulated equivalents of the 13 ProFuzzBench network
// services the paper evaluates on (§5.2), the Super Mario input harness
// glue, and the case-study targets (MySQL client §5.4, Lighttpd §5.5,
// Firefox IPC §5.6).
//
// Each target is an event-driven protocol state machine running in the
// guest kernel, instrumented with AFL-style coverage probes, carrying the
// seeded bugs Table 1 reports, and parameterized with the virtual-time
// costs that make the throughput comparison meaningful (startup cost,
// per-packet processing cost, cleanup cost for AFLnet-style restarts).
package targets

import (
	"bytes"
	"fmt"
	"sort"
	"time"
	"unicode/utf8"

	"repro/internal/guest"
	"repro/internal/spec"
)

// Info describes a registered target: constructor, attack surface, seeds,
// dictionary, and the cost parameters baseline fuzzers need.
type Info struct {
	Name string
	New  func() guest.Target
	Port guest.Port

	// Seeds builds the campaign seed inputs against the target's spec
	// (ProFuzzBench ships short valid sessions as seeds).
	Seeds func(s *spec.Spec) []*spec.Input
	// Dict is the protocol token dictionary.
	Dict [][]byte

	// Startup is the process start cost a restarting fuzzer pays per
	// execution (server boot: config parsing, DB init, key generation).
	Startup time.Duration
	// Cleanup is the AFLnet cleanup-script cost per execution.
	Cleanup time.Duration
	// ServerWait is AFLnet's fixed sleep waiting for the server to be
	// ready (§2.1: "fixed sleep times to ensure servers are online").
	ServerWait time.Duration

	// DesockCompat reports whether the AFL++/libpreeny desock layer can
	// run the target at all (false produces the "n/a" rows of Table 2:
	// multi-connection or UDP semantics desock cannot emulate).
	DesockCompat bool
}

var registry = map[string]*Info{}

// Register adds a target to the registry; it panics on duplicates (targets
// register from init functions).
func Register(info *Info) {
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("targets: duplicate registration of %q", info.Name))
	}
	registry[info.Name] = info
}

// Lookup returns a registered target by name.
func Lookup(name string) (*Info, bool) {
	i, ok := registry[name]
	return i, ok
}

// Names returns all registered target names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ProFuzzBench returns the 13 benchmark targets in the paper's table order.
func ProFuzzBench() []string {
	return []string{
		"bftpd", "dcmtk", "dnsmasq", "exim", "forked-daapd", "kamailio",
		"lightftp", "live555", "openssh", "openssl", "proftpd", "pure-ftpd",
		"tinydtls",
	}
}

// ---- Coverage helpers ----
//
// Targets namespace their probe locations so edges from different targets
// never collide, and use value-dependent probes to model parsers that
// branch on input bytes (the source of most real coverage).

// loc builds a probe location in namespace ns.
func loc(ns, id uint32) uint32 { return ns<<18 ^ id*2654435761 }

// covByte records a probe whose identity depends on one input byte —
// modelling a switch over a parsed byte (up to 256 distinct locations).
func covByte(env *guest.Env, ns, id uint32, b byte) {
	env.Cov(loc(ns, id) + uint32(b))
}

// covClass records a probe for the length class of an argument: parsers
// branch on empty/short/long/oversized arguments.
func covClass(env *guest.Env, ns, id uint32, n int) {
	var c uint32
	switch {
	case n == 0:
		c = 0
	case n < 4:
		c = 1
	case n < 16:
		c = 2
	case n < 64:
		c = 3
	case n < 256:
		c = 4
	default:
		c = 5
	}
	env.Cov(loc(ns, id) + c)
}

// covToken records a probe per recognized token index.
func covToken(env *guest.Env, ns, id uint32, tokenIdx int) {
	env.Cov(loc(ns, id) + uint32(tokenIdx))
}

// splitCmd splits "VERB arg" into verb and argument, both sub-slices of data
// (valid as long as data is: for a packet, only during OnPacket).
func splitCmd(data []byte) (verb, arg []byte) {
	for len(data) > 0 && (data[len(data)-1] == '\n' || data[len(data)-1] == '\r') {
		data = data[:len(data)-1]
	}
	if i := bytes.IndexByte(data, ' '); i >= 0 {
		return data[:i], data[i+1:]
	}
	return data, nil
}

// foldVerb upper-cases a command verb for a lookup among ASCII verbs, into
// buf when it fits. When strings.ToUpper(verb) is pure ASCII it returns
// exactly those bytes; otherwise it returns verb as it is, which is not pure
// ASCII either, so no table lookup, switch or comparison against ASCII verbs
// can tell the two apart. Just two runes outside ASCII upper-case into it,
// U+017F 'ſ' (S) and U+0131 'ı' (I) — "uſer" is USER — so those fold and any
// other byte >= 0x80 ends the fold. A mutated verb is mostly such bytes: it
// costs a scan up to the first of them. Nothing allocates unless the folded
// verb is longer than buf, which no verb a target knows is.
func foldVerb(buf *[16]byte, verb []byte) []byte {
	out := buf[:0]
	for i := 0; i < len(verb); {
		c := verb[i]
		switch {
		case c < utf8.RuneSelf:
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
		case bytes.HasPrefix(verb[i:], []byte("ſ")):
			out = append(out, 'S')
			i += len("ſ")
		case bytes.HasPrefix(verb[i:], []byte("ı")):
			out = append(out, 'I')
			i += len("ı")
		default:
			return verb
		}
	}
	return out
}

// seedSession builds one seed input: connect, the given packets, close.
func seedSession(s *spec.Spec, port guest.Port, msgs ...string) *spec.Input {
	conName := fmt.Sprintf("connect_%s_%d", port.Proto, port.Num)
	con, ok := s.NodeByName(conName)
	if !ok {
		panic("targets: spec missing " + conName)
	}
	pkt, _ := s.NodeByName("packet")
	cls, _ := s.NodeByName("close")
	in := spec.NewInput(spec.Op{Node: con})
	for _, m := range msgs {
		in.Ops = append(in.Ops, spec.Op{Node: pkt, Args: []uint16{0}, Data: []byte(m)})
	}
	in.Ops = append(in.Ops, spec.Op{Node: cls, Args: []uint16{0}})
	return in
}

// tokens converts strings to a dictionary.
func tokens(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}
