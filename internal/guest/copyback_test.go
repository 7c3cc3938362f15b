package guest_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/spec"
	"repro/internal/targets"
)

// kernelView renders the struct form as the kernel's accessors report it:
// processes, the init process's fd table, every connection with its
// responses, the corruption count and the filesystem.
func kernelView(k *guest.Kernel) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d processes, corruption %d\n", k.Processes(), k.Corruption())
	if p := k.InitProcess(); p != nil {
		fmt.Fprintf(&b, "init %d fds %v\n", p.PID, p.FDs)
	}
	for id := 1; id < 1024; id++ {
		if c := k.Conn(id); c != nil {
			fmt.Fprintf(&b, "conn %d %s desc %d closed %v aliases %d sent %q\n", c.ID, c.Port, c.DescID, c.Closed, k.AliasCount(c), c.Sent)
		}
	}
	b.WriteString(fsView(k))
	return b.String()
}

// TestHydrateCopyBackMatchesDecode holds hydrate's copy-back against the
// decoder. Each state target's VM keeps two slots beside the root, taken at
// different points of different seeds, and restores among the three in a
// pattern that repeats some restores (identity hits, served by copying the
// last decoded state back) and alternates others (served by decoding). Once,
// mid-pattern, slot 1 is re-taken at the state a test case left, and the
// restore of it that follows must decode: the slot id is the same, the capture
// is not. After every hydrate the struct form must re-encode to the image the
// restore brought back, byte for byte, and report what a kernel with no
// history reports after decoding that image. Between restores a mutated input
// and direct syscalls change connections, fd and watch lists, processes, files
// and target tables, so a copy-back that leaves any of them as the test case
// left it shows.
func TestHydrateCopyBackMatchesDecode(t *testing.T) {
	pattern := []int{1, 1, 2, 2, 0, 0, 1, 2, 1, 0, 2, 2, 2, 1, 0}
	retake := len(pattern) // a round that restores slot 1, as the next one does
	for _, target := range stateTargets {
		t.Run(target, func(t *testing.T) {
			v := launchCoherent(t, target, false)
			seeds := v.Seeds()
			var ids [3][]int // per restore point, its connections' ids in order
			take := func(slot int) {
				t.Helper()
				if err := v.M.TakeIncrementalSlot(slot); err != nil {
					t.Fatal(err)
				}
				for _, c := range v.conns {
					ids[slot] = append(ids[slot], c.ID)
				}
			}
			first, last := seeds[0].Ops, seeds[len(seeds)-1].Ops
			v.run(t, first[:len(first)/2+1])
			take(1)
			if err := v.M.RestoreRoot(); err != nil {
				t.Fatal(err)
			}
			v.conns = v.conns[:0]
			v.run(t, last[:len(last)-1])
			v.syscalls(t, 0, 2)
			take(2)

			mut := spec.NewMutator(v.Spec, rand.New(rand.NewSource(31)))
			hits0, decodes0 := v.K.Hydrates()
			for round := 0; round < 3*len(pattern); round++ {
				at := pattern[round%len(pattern)]
				hitsBefore, decodesBefore := v.K.Hydrates()
				var err error
				if at == 0 {
					err = v.M.RestoreRoot()
				} else {
					err = v.M.RestoreIncrementalSlot(at)
				}
				if err != nil {
					t.Fatal(err)
				}
				img := v.image(t)
				if got := v.K.EncodeImage(); !bytes.Equal(got, img) {
					t.Fatalf("round %d: restore of %d: the struct form encodes to %d bytes that are not the %d restored", round, at, len(got), len(img))
				}
				if h, d := v.K.Hydrates(); round == retake+1 && (h != hitsBefore || d != decodesBefore+1) {
					t.Fatalf("round %d: the restore of re-taken slot 1 ran %d identity hits and %d decodes, want one decode", round, h-hitsBefore, d-decodesBefore)
				}
				probe := launchCoherent(t, target, false)
				if err := probe.K.DecodeImage(img); err != nil {
					t.Fatalf("round %d: restored image does not decode: %v", round, err)
				}
				if got, want := kernelView(v.K), kernelView(probe.K); got != want {
					t.Fatalf("round %d: restore of %d: the kernel reports\n%swhere one with no history reports\n%s", round, at, got, want)
				}
				v.conns = v.conns[:0]
				for _, id := range ids[at] {
					v.conns = append(v.conns, v.K.Conn(id))
				}
				v.run(t, mut.Mutate(seeds[round%len(seeds)]).Ops)
				v.syscalls(t, round, 1+round%3)
				if round == retake {
					ids[1] = ids[1][:0]
					take(1)
				}
			}
			hits, decodes := v.K.Hydrates()
			t.Logf("hydrates: %d identity hits, %d decodes", hits-hits0, decodes-decodes0)
			if hits == hits0 || decodes == decodes0 {
				t.Fatal("the restores did not run both paths")
			}
		})
	}
}

// TestHydrateCopyBackServesCampaign is a counted guard on what copy-back is
// for: in the bftpd campaign the repo benchmark's ftp-snap workload runs
// (aggressive policy, 4 MiB snapshot pool), at seed 1 for 16 virtual seconds,
// at least nine hydrates in ten must be identity hits, restores of the
// capture the kernel last read. Every table copies back on exactly the
// identity hits, so the ratio holds for table reads too. The run reads 97%; a
// change that silently makes restores decode again fails here.
func TestHydrateCopyBackServesCampaign(t *testing.T) {
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
	if err := f.RunFor(16 * time.Second); err != nil {
		t.Fatal(err)
	}
	hits, decodes := inst.K.Hydrates()
	t.Logf("%d execs; hydrates: %d identity hits, %d decodes", f.Execs(), hits, decodes)
	if hits < 9*decodes || hits+decodes < int(f.Execs())/2 {
		t.Errorf("identity hits served %d of %d hydrates, want at least 90%%", hits, hits+decodes)
	}
}

// TestHydrateByCaptureMatchesMemory is the refinement obligation of the
// identity hit: a hydrate of the capture the kernel last read installs what
// a decode of the restored guest memory would, without reading it. On every
// hit of three campaigns — the repo benchmark's ftp-snap engine (bftpd,
// aggressive, 4 MiB pool), tinydtls under policy none (a root restore per
// exec) and dnsmasq under the aggressive policy's single slot, which is
// re-taken every round — nothing may have read guest memory since the
// restore, the image the kernel copied back from must be byte-equal to the one
// guest memory holds, and the struct form must encode to it too. A campaign
// re-takes a slot only after restoring another capture, so each VM then also
// re-takes one slot at the state its own restore led to, eight times: the
// order in which a capture number that named two images would show. At every
// flush that writes, the blob length the kernel keeps, which the flush
// zero-fills past instead of reading the header, must be the header's.
func TestHydrateByCaptureMatchesMemory(t *testing.T) {
	for _, c := range []struct {
		target string
		policy core.Policy
		budget int64
	}{
		{"bftpd", core.PolicyAggressive, 4 << 20},
		{"tinydtls", core.PolicyNone, 0},
		{"dnsmasq", core.PolicyAggressive, 0},
	} {
		t.Run(c.target, func(t *testing.T) {
			inst, err := targets.Launch(c.target, targets.LaunchConfig{})
			if err != nil {
				t.Fatal(err)
			}
			var reads uint64 // guest-memory reads when the last restore ended
			restored := inst.M.GuestHooks.Restored
			inst.M.GuestHooks.Restored = func(capture uint64) {
				reads = inst.M.Mem.Stats().Reads
				restored(capture)
			}
			header := func() int {
				var hdr [4]byte
				if _, err := inst.M.Mem.ReadAt(hdr[:], stateHeap); err != nil {
					t.Fatal(err)
				}
				return int(binary.LittleEndian.Uint32(hdr[:]))
			}
			flushes := 0
			flush := inst.M.GuestHooks.Flush
			inst.M.GuestHooks.Flush = func() {
				if stored, dirty := inst.K.Stored(); dirty {
					if flushes++; stored != header() {
						t.Fatalf("flush %d: the kernel keeps %d as the blob length, the header says %d", flushes, stored, header())
					}
				}
				flush()
			}
			hits, bad := 0, 0
			guest.SetHitHook(func(k *guest.Kernel, img []byte) {
				hits++
				if bad > 0 {
					return // the first divergence is the one to read
				}
				if n := inst.M.Mem.Stats().Reads; n != reads {
					t.Errorf("hit %d: the hydrate read guest memory %d times", hits, n-reads)
					bad++
				}
				inMem := make([]byte, header())
				if _, err := inst.M.Mem.ReadAt(inMem, stateHeap+4); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(img, inMem) {
					t.Errorf("hit %d: copied back from a %d-byte image, guest memory holds %d different bytes", hits, len(img), len(inMem))
					bad++
				} else if enc := k.EncodeImage(); !bytes.Equal(enc, img) {
					t.Errorf("hit %d: the struct form encodes to %d bytes that are not the %d copied back from", hits, len(enc), len(img))
					bad++
				}
			})
			defer guest.SetHitHook(nil)
			f := core.New(inst.Agent, inst.Spec, core.Options{
				Policy:     c.policy,
				Seeds:      inst.Seeds(),
				Rand:       rand.New(rand.NewSource(1)),
				Dict:       inst.Info.Dict,
				SnapBudget: c.budget,
			})
			if err := f.RunFor(16 * time.Second); err != nil {
				t.Fatal(err)
			}
			v := &coherentVM{Instance: inst}
			for round := 0; round < 8; round++ {
				if err := inst.M.TakeIncrementalSlot(captureSlot); err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ { // a decode, then an identity hit
					if err := inst.M.RestoreIncrementalSlot(captureSlot); err != nil {
						t.Fatal(err)
					}
					inst.K.Processes()
				}
				v.syscalls(t, round, 1)
			}
			inst.M.DropSlot(captureSlot)
			counted, decodes := inst.K.Hydrates()
			t.Logf("%d execs: %d identity hits, %d decodes, %d flushes", f.Execs(), hits, decodes, flushes)
			if hits != counted || hits < int(f.Execs())/2 {
				t.Errorf("the hook saw %d hits, the kernel counted %d, in %d execs", hits, counted, f.Execs())
			}
			if flushes < 8 {
				t.Errorf("%d flushes wrote, want at least the test's own 8", flushes)
			}
		})
	}
}
