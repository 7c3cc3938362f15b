package guest_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"repro/internal/guest"
	"repro/internal/spec"
	"repro/internal/targets"
	"repro/internal/vm"
)

// decoders boots stateTargets and returns their kernels with the image each
// one booted into and the one it holds half-way through its first seed, when
// the target's tables have entries in them.
func decoders(tb testing.TB) (ks []*guest.Kernel, boot, mid [][]byte) {
	tb.Helper()
	for _, target := range stateTargets {
		inst, err := targets.Launch(target, targets.LaunchConfig{VM: &vm.Config{MemoryPages: 256, DiskSectors: 4096}})
		if err != nil {
			tb.Fatal(err)
		}
		ks = append(ks, inst.K)
		boot = append(boot, bytes.Clone(inst.K.EncodeImage()))
		ops := inst.Seeds()[0].Ops
		if _, err := inst.Agent.RunFromRoot(&spec.Input{Ops: ops[:len(ops)/2+1], SnapshotAt: -1}, nil); err != nil {
			tb.Fatal(err)
		}
		mid = append(mid, bytes.Clone(inst.K.EncodeImage()))
	}
	return ks, boot, mid
}

// FuzzStateDecode feeds arbitrary bytes to the state decoder of each of the
// four kernels, the way a restore would after something scribbled over guest
// memory. A decode either fails through the reader's error or yields a
// state that encodes back to the same bytes; it never panics, and a count
// field never sizes an allocation the image could not fill (the fuzzing
// engine's memory limit is what notices). The kernels are reused across
// inputs, so every decode also starts from whatever the last one, failed or
// not, left behind. After each input a kernel decodes a known-good image, so
// every decode runs on a used kernel. Only the decode path is reached:
// DecodeImage is no restore and names no capture, so it always decodes the
// kernel section and forgets the capture number, and the identity hit, which
// needs one, is held to guest memory by TestHydrateByCaptureMatchesMemory
// instead. Within a decode each Table still copies back what it last decoded
// when the image repeats its section: the input copies back the tables the
// good image left whenever it repeats their bytes, and the good image copies
// back what it left before or decodes afresh what the input replaced.
// Whatever state a decode leaves, the length of the kernel's section the
// discard hook computes from its tables must be the length marshal writes.
func FuzzStateDecode(f *testing.F) {
	ks, boot, mid := decoders(f)
	for _, img := range slices.Concat(boot, mid) {
		f.Add(img)
		f.Add(img[:len(img)/2])
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		for i, k := range ks {
			if err := k.DecodeImage(image); err == nil {
				if got := k.EncodeImage(); !bytes.Equal(got, image) {
					t.Fatalf("%s: a %d-byte image decoded and re-encoded to %d different bytes", k.Target.Name(), len(image), len(got))
				}
				if computed, written := k.KernelSectionLen(); computed != written {
					t.Fatalf("%s: the kernel section is computed as %d bytes and written as %d", k.Target.Name(), computed, written)
				}
			}
			good := mid[i]
			if len(image)%2 == 0 {
				good = boot[i]
			}
			if err := k.DecodeImage(good); err != nil {
				t.Fatalf("%s: a good image does not decode after the input: %v", k.Target.Name(), err)
			}
			if got := k.EncodeImage(); !bytes.Equal(got, good) {
				t.Fatalf("%s: a good image decoded after the input re-encodes to %d different bytes", k.Target.Name(), len(got))
			}
			if computed, written := k.KernelSectionLen(); computed != written {
				t.Fatalf("%s: the good image's kernel section is computed as %d bytes and written as %d", k.Target.Name(), computed, written)
			}
		}
	})
}

// TestStateDecodeBoundsCounts overwrites every byte offset of each boot
// image, and of each mid-seed image with its table counts, with a count of
// four billion and decodes the result. Whichever field the offset falls in,
// the decode may fail or succeed, but all of them together must allocate less
// than one honest count of that size would.
func TestStateDecodeBoundsCounts(t *testing.T) {
	ks, boot, mid := decoders(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, k := range ks {
		for _, good := range [][]byte{boot[i], mid[i]} {
			for off := 0; off+4 <= len(good); off++ {
				img := bytes.Clone(good)
				binary.LittleEndian.PutUint32(img[off:], 0xf0000000)
				if err := k.DecodeImage(img); err == nil && !bytes.Equal(k.EncodeImage(), img) {
					t.Fatalf("%s: image with offset %d overwritten decodes but does not re-encode to itself", k.Target.Name(), off)
				}
			}
			if err := k.DecodeImage(good); err != nil {
				t.Fatalf("%s: image no longer decodes after the corrupt ones: %v", k.Target.Name(), err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Fatalf("decoding corrupt images allocated %d MiB", got>>20)
	}
}
