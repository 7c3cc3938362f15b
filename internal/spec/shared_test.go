package spec_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/targets"
)

// held is an input some owner keeps (a queue entry, a seed) with the bytes
// it serialized to when the owner took it.
type held struct {
	in   *spec.Input
	want []byte
}

func hold(in *spec.Input) held { return held{in, spec.Serialize(in)} }

func (h held) check(t *testing.T, when string) {
	t.Helper()
	if got := spec.Serialize(h.in); !bytes.Equal(got, h.want) {
		t.Fatalf("%s: a held input changed under its owner\n got %x\nwant %x", when, got, h.want)
	}
}

// TestMutationNeverWritesThroughSharedOps checks the package's sharing rule
// from the owners' side: whatever the mutator is asked to do with inputs
// that share Args and Data arrays — seeds, clones of seeds, children admitted
// by Clone the way core.account admits them, and their children — no held
// input's bytes ever change. Writing one havoc case or the repair step back
// in place fails it.
func TestMutationNeverWritesThroughSharedOps(t *testing.T) {
	for _, name := range targets.Names() {
		info, _ := targets.Lookup(name)
		s := spec.RawPacketSpec(name, info.New().Ports())
		for _, dict := range [][][]byte{nil, info.Dict} {
			run := name + "/dict"
			if dict == nil {
				run = name + "/nodict"
			} else if len(dict) == 0 {
				continue
			}
			t.Run(run, func(t *testing.T) {
				rng := rand.New(rand.NewSource(1))
				m := spec.NewMutator(s, rng)
				m.Dict = dict
				var corpus []held
				for _, seed := range info.Seeds(s) {
					// The seed, and two entries sharing every array with it.
					corpus = append(corpus, hold(seed), hold(seed.Clone()), hold(seed.Clone()))
				}
				if len(corpus) == 0 {
					corpus = append(corpus, hold(m.Generate(0)))
				}
				seeds := len(corpus)
				for round := 0; round < 20000; round++ {
					a, b := corpus[rng.Intn(len(corpus))], corpus[rng.Intn(len(corpus))]
					var child *spec.Input
					switch round % 3 {
					case 0:
						child = m.Mutate(a.in)
					case 1:
						child = m.MutateSuffix(a.in, rng.Intn(len(a.in.Ops)+1))
					case 2:
						child = m.Mutate(m.Splice(a.in, b.in))
						b.check(t, "splice mate")
					}
					a.check(t, "parent")
					if err := s.Validate(child); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					if round%8 == 0 {
						// Admit the child; past 128 entries it replaces a
						// non-seed one, which nobody holds any longer.
						if e := hold(child.Clone()); len(corpus) < 128 {
							corpus = append(corpus, e)
						} else {
							corpus[seeds+rng.Intn(len(corpus)-seeds)] = e
						}
					}
				}
				for _, h := range corpus {
					h.check(t, "at the end")
				}
			})
		}
	}
}

// TestMutateResultValidUntilNextCall checks the lifetime rule from the
// caller's side: the result's prefix is the parent's, a Clone taken before
// the next call keeps its bytes however many calls follow, and the result
// itself is the mutator's to overwrite.
func TestMutateResultValidUntilNextCall(t *testing.T) {
	info, _ := targets.Lookup("bftpd")
	s := spec.RawPacketSpec("bftpd", info.New().Ports())
	parent := info.Seeds(s)[0]
	m := spec.NewMutator(s, rand.New(rand.NewSource(3)))
	m.Dict = info.Dict
	var clones []held
	for round := 0; round < 2000; round++ {
		start := round % len(parent.Ops)
		child := m.MutateSuffix(parent, start)
		if len(child.Ops) < start {
			t.Fatalf("round %d: child lost part of its prefix", round)
		}
		got := spec.Serialize(&spec.Input{Ops: child.Ops[:start], SnapshotAt: -1})
		want := spec.Serialize(&spec.Input{Ops: parent.Ops[:start], SnapshotAt: -1})
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: prefix ops[:%d] differs from the parent's", round, start)
		}
		if round%100 == 0 {
			clones = append(clones, hold(child.Clone()))
		}
		for _, c := range clones {
			c.check(t, "clone of an earlier result")
		}
	}
}

// TestArenaCloneOutlivesLaterCalls checks the mutator arena's lifetime rule
// from a holder's side: a Clone of a child keeps its bytes over the next
// 1,000 calls of every kind — MutateSuffix and Mutate on the seeds, on the
// mutator's own last child and on splices of it, and Splice — and it copies
// only what the mutation built: every payload the child took over from its
// parent unchanged is the parent's array in the clone too.
func TestArenaCloneOutlivesLaterCalls(t *testing.T) {
	info, _ := targets.Lookup("bftpd")
	s := spec.RawPacketSpec("bftpd", info.New().Ports())
	seeds := info.Seeds(s)
	rng := rand.New(rand.NewSource(5)) // the test's own choices
	m := spec.NewMutator(s, rand.New(rand.NewSource(13)))
	m.Dict = info.Dict
	parentArray := func(parent *spec.Input, d []byte) bool {
		for _, op := range parent.Ops {
			if len(d) > 0 && len(op.Data) > 0 && &d[0] == &op.Data[0] {
				return true
			}
		}
		return false
	}
	shared, copied := 0, 0
	for round := 0; round < 20; round++ {
		parent := seeds[round%len(seeds)]
		child := m.MutateSuffix(parent, rng.Intn(len(parent.Ops)+1))
		clone := hold(child.Clone())
		for i, op := range child.Ops {
			if len(op.Data) == 0 {
				continue
			}
			same := &clone.in.Ops[i].Data[0] == &op.Data[0]
			if kept := parentArray(parent, op.Data); kept != same {
				t.Fatalf("round %d op %d: the parent's payload array kept %v, shared with the clone %v", round, i, kept, same)
			} else if kept {
				shared++
			} else {
				copied++
			}
		}
		for call := 0; call < 1000; call++ {
			in := seeds[rng.Intn(len(seeds))]
			switch rng.Intn(4) {
			case 0:
				child = m.MutateSuffix(in, rng.Intn(len(in.Ops)+1))
			case 1:
				child = m.Mutate(child)
			case 2:
				child = m.Mutate(m.Splice(child, in))
			case 3:
				m.Splice(in, child)
			}
		}
		clone.check(t, fmt.Sprintf("round %d, after 1000 calls", round))
	}
	if shared == 0 || copied == 0 {
		t.Fatalf("%d payloads shared and %d copied: the check saw only one kind", shared, copied)
	}
}

// TestMutatingOwnChildMatchesMutatingItsClone checks the other side of the
// arena's reset: a call given the mutator's own last child, or a splice of
// it, gives what the same call on a Clone of that child gives, although the
// child's arena arrays are about to be rewritten. Two identically seeded
// mutators take the same calls; one is handed its child, the other a clone.
func TestMutatingOwnChildMatchesMutatingItsClone(t *testing.T) {
	for _, name := range []string{"bftpd", "exim", "tinydtls"} {
		t.Run(name, func(t *testing.T) {
			info, _ := targets.Lookup(name)
			s := spec.RawPacketSpec(name, info.New().Ports())
			seeds := info.Seeds(s)
			own, cloned := spec.NewMutator(s, rand.New(rand.NewSource(17))), spec.NewMutator(s, rand.New(rand.NewSource(17)))
			own.Dict, cloned.Dict = info.Dict, info.Dict
			rng := rand.New(rand.NewSource(19)) // the test's own choices
			a, b := own.Mutate(seeds[0]), cloned.Mutate(seeds[0])
			for call := 0; call < 5000; call++ {
				in := seeds[rng.Intn(len(seeds))]
				switch c := b.Clone(); rng.Intn(3) {
				case 0:
					start := rng.Intn(len(a.Ops) + 1)
					a, b = own.MutateSuffix(a, start), cloned.MutateSuffix(c, start)
				case 1:
					a, b = own.Mutate(own.Splice(a, in)), cloned.Mutate(cloned.Splice(c, in))
				case 2:
					a, b = own.Mutate(own.Splice(in, a)), cloned.Mutate(cloned.Splice(in, c))
				}
				if x, y := spec.Serialize(a), spec.Serialize(b); !bytes.Equal(x, y) {
					t.Fatalf("call %d: the own child gave\n%x\nwhere its clone gave\n%x", call, x, y)
				}
				if err := s.Validate(a); err != nil {
					t.Fatalf("call %d: %v", call, err)
				}
			}
		})
	}
}

// script is a rand.Source that dictates the next draws: Intn(n) returns
// vals[i] % n for each scripted value in turn, then 0.
type script struct {
	vals []int64
	i    int
}

func (s *script) Int63() int64 {
	if s.i >= len(s.vals) {
		return 0
	}
	s.i++
	return s.vals[s.i-1] << 32
}
func (*script) Seed(int64) {}

// TestMutateSuffixSteadyStateAllocs pins what a child costs once the
// mutator's child and scratch have grown to size: nothing, whether the
// mutation rearranges op headers, havocs a payload or generates ops, whose
// new arrays lie in the mutator's arena.
func TestMutateSuffixSteadyStateAllocs(t *testing.T) {
	info, _ := targets.Lookup("bftpd")
	s := spec.RawPacketSpec("bftpd", info.New().Ports())
	parent := info.Seeds(s)[0]
	src := &script{}
	m := spec.NewMutator(s, rand.New(src))
	m.Dict = info.Dict

	// Draws of one MutateSuffix: stacked mutations - 1, the mutation, then
	// that mutation's own (op index; for havoc: payload op, havoc case; for
	// generate: ops - 1, node).
	for _, c := range []struct {
		name  string
		draws []int64
	}{
		{"dup", []int64{0, 5, 1}},
		{"drop", []int64{0, 6, 1}},
		{"swap", []int64{0, 7, 1}},
		{"truncate", []int64{0, 8, 1}},
		{"four rearrangements", []int64{3, 5, 1, 7, 0, 6, 1, 8, 0}},
		{"havoc bit flip", []int64{0, 0, 1, 0, 2, 3}},
		{"havoc byte set", []int64{0, 0, 1, 1, 2, 3}},
		{"havoc interesting", []int64{0, 0, 1, 2, 2, 3}},
		{"havoc insert", []int64{0, 0, 1, 3, 2, 3}},
		{"havoc delete", []int64{0, 0, 1, 4, 2}},
		{"havoc dup chunk", []int64{0, 0, 1, 5, 2, 3}},
		{"havoc dict", []int64{0, 0, 1, 6, 2, 3, 1}},
		{"generate a packet", []int64{0, 9, 0, 1}},
	} {
		// Calls in a row on one parent and start keep its prefix; forgetting it
		// before each call copies it every time. Neither allocates.
		for _, forget := range []bool{false, true} {
			before, copies := hold(parent), m.PrefixCopies()
			var child *spec.Input
			mutate := func() {
				src.vals, src.i = c.draws, 0
				if forget {
					m.ForgetPrefix()
				}
				child = m.MutateSuffix(parent, 2)
			}
			mutate() // warm-up: grows the child and the scratch
			if got := testing.AllocsPerRun(100, mutate); got != 0 {
				t.Errorf("%s (forgetting %v): %.0f allocations per child, want 0", c.name, forget, got)
			}
			if copied := m.PrefixCopies() - copies; forget && copied != 102 || !forget && copied > 1 {
				t.Errorf("%s (forgetting %v): 102 calls copied the prefix %d times", c.name, forget, copied)
			}
			if bytes.Equal(spec.Serialize(child), before.want) {
				t.Errorf("%s: the scripted draws mutated nothing", c.name)
			}
			before.check(t, c.name)
		}
	}
}

// TestMutateSuffixPrefixMemoMatchesFreshCopy checks the kept prefix against
// a copy. Two identically seeded mutators take the same calls, one made to
// forget its prefix before each: rounds of calls on one input and start,
// interleaved with Mutate and Splice calls, with a copy of the input whose ops
// are equal but in a new array (what a trim leaves), and with calls on the
// mutator's own last child, which must copy every time and never become the
// kept prefix's key. Every child must serialize the same from both, and the
// next draw from both sources must agree.
func TestMutateSuffixPrefixMemoMatchesFreshCopy(t *testing.T) {
	for _, name := range []string{"bftpd", "dnsmasq", "tinydtls", "exim"} {
		t.Run(name, func(t *testing.T) {
			info, _ := targets.Lookup(name)
			s := spec.RawPacketSpec(name, info.New().Ports())
			kept, fresh := spec.NewMutator(s, rand.New(rand.NewSource(7))), spec.NewMutator(s, rand.New(rand.NewSource(7)))
			kept.Dict, fresh.Dict = info.Dict, info.Dict
			corpus := info.Seeds(s)
			calls := 0
			same := func(what string, call func(m *spec.Mutator) *spec.Input) {
				t.Helper()
				fresh.ForgetPrefix()
				child := call(kept)
				if err := s.Validate(child); err != nil {
					t.Fatalf("call %d (%s): %v", calls, what, err)
				}
				a, b := spec.Serialize(child), spec.Serialize(call(fresh))
				if calls++; !bytes.Equal(a, b) {
					t.Fatalf("call %d (%s): the kept prefix gave\n%x\nwhere a fresh copy gave\n%x", calls, what, a, b)
				}
				if x, y := kept.R.Int63(), fresh.R.Int63(); x != y {
					t.Fatalf("call %d (%s): the sources drew apart", calls, what)
				}
			}
			rng := rand.New(rand.NewSource(11)) // the test's own choices
			for round := 0; round < 400; round++ {
				in := corpus[rng.Intn(len(corpus))]
				start := rng.Intn(len(in.Ops) + 1)
				for i, n := 0, 1+rng.Intn(8); i < n; i++ {
					switch rng.Intn(10) {
					case 0:
						other := corpus[rng.Intn(len(corpus))]
						same("Mutate", func(m *spec.Mutator) *spec.Input { return m.Mutate(other) })
					case 1:
						other := corpus[rng.Intn(len(corpus))]
						same("Splice", func(m *spec.Mutator) *spec.Input { return m.Mutate(m.Splice(in, other)) })
					case 2:
						in = in.Clone()
						same("a copy in a new array", func(m *spec.Mutator) *spec.Input { return m.MutateSuffix(in, start) })
					case 3:
						same("the mutator's own child", func(m *spec.Mutator) *spec.Input {
							child := m.MutateSuffix(in, start)
							copies := m.PrefixCopies()
							child = m.MutateSuffix(m.MutateSuffix(child, start), start)
							if start > 0 && m.PrefixCopies() != copies+2 {
								t.Fatalf("call %d: two calls on the mutator's own child copied the prefix %d times", calls, m.PrefixCopies()-copies)
							}
							return child
						})
					default:
						same("a round", func(m *spec.Mutator) *spec.Input { return m.MutateSuffix(in, start) })
					}
				}
				if round%3 == 0 {
					corpus = append(corpus, kept.MutateSuffix(in, start).Clone())
					fresh.MutateSuffix(in, start)
				}
			}
			if served := fresh.PrefixCopies() - kept.PrefixCopies(); 4*served < fresh.PrefixCopies() {
				t.Fatalf("the kept prefix served %d of %d calls past the first op", served, fresh.PrefixCopies())
			}
		})
	}
}

// TestMutateSuffixRoundCopiesPrefixOnce is a counted guard on the kept
// prefix: in the bftpd campaign the repo benchmark's ftp-snap workload runs
// (aggressive policy, 4 MiB snapshot pool), at seed 1 for 16 virtual seconds,
// no scheduling round copies a prefix more than once, so almost every suffix
// execution finds its prefix kept. A change that silently makes the mutator
// forget between the calls of a round fails here.
func TestMutateSuffixRoundCopiesPrefixOnce(t *testing.T) {
	inst, err := targets.Launch("bftpd", targets.LaunchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f := core.New(inst.Agent, inst.Spec, core.Options{
		Policy:     core.PolicyAggressive,
		Seeds:      inst.Seeds(),
		Rand:       rand.New(rand.NewSource(1)),
		Dict:       inst.Info.Dict,
		SnapBudget: 4 << 20,
	})
	rounds := 0
	for f.Elapsed() < 16*time.Second {
		copies, snaps := f.Mut.PrefixCopies(), f.SnapshotExecs()
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		if n := f.Mut.PrefixCopies() - copies; n > 1 {
			t.Fatalf("a scheduling round copied its prefix %d times", n)
		}
		if f.SnapshotExecs() > snaps {
			rounds++
		}
	}
	copies := f.Mut.PrefixCopies()
	t.Logf("%d suffix executions in %d rounds copied a prefix %d times", f.SnapshotExecs(), rounds, copies)
	if copies > rounds || uint64(10*copies) > f.SnapshotExecs() {
		t.Errorf("%d prefix copies for %d rounds and %d suffix executions", copies, rounds, f.SnapshotExecs())
	}
}

// FuzzBytecodeDecode feeds arbitrary bytes to Deserialize, the way a corpus
// directory or a checkpoint somebody else wrote does. A decode either fails
// with ErrBadBytecode or yields an input that encodes back to the same
// bytes — less the 7 bytes of each snapshot marker after the first, which
// are dropped by design; it never panics, and no count field sizes an
// allocation the bytes could not fill (the fuzzing engine's memory limit is
// what notices).
func FuzzBytecodeDecode(f *testing.F) {
	for _, name := range targets.Names() {
		info, _ := targets.Lookup(name)
		s := spec.RawPacketSpec(name, info.New().Ports())
		for _, seed := range info.Seeds(s) {
			b := spec.Serialize(seed)
			f.Add(b)
			f.Add(b[:len(b)/2])
			f.Add(spec.Serialize(&spec.Input{Ops: seed.Ops, SnapshotAt: len(seed.Ops) / 2}))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		in, err := spec.Deserialize(b)
		if err != nil {
			if !errors.Is(err, spec.ErrBadBytecode) {
				t.Fatalf("decode failed with %v, not ErrBadBytecode", err)
			}
			return
		}
		got := spec.Serialize(in)
		if len(got) != spec.EncodedLen(in) {
			t.Fatalf("EncodedLen says %d, Serialize wrote %d bytes", spec.EncodedLen(in), len(got))
		}
		if extra := len(b) - len(got); extra == 0 && !bytes.Equal(got, b) {
			t.Fatalf("%d bytes decoded and re-encoded to different bytes", len(b))
		} else if extra < 0 || extra%7 != 0 {
			t.Fatalf("%d bytes decoded and re-encoded to %d", len(b), len(got))
		}
		// The appending form, which Deserialize wraps, decodes the same
		// input twice into one pair of small slabs, each cut to its own
		// length.
		var twice [2]spec.Input
		ops, args := make([]spec.Op, 0, 4), make([]uint16, 0, 4)
		for i := range twice {
			if ops, args, err = spec.DeserializeAppend(&twice[i], b, ops, args); err != nil {
				t.Fatalf("Deserialize accepted what DeserializeAppend refuses: %v", err)
			}
			if cap(twice[i].Ops) != len(twice[i].Ops) || !bytes.Equal(spec.Serialize(&twice[i]), got) {
				t.Fatalf("decode %d into a shared slab differs from Deserialize's", i)
			}
		}
	})
}
