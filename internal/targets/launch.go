package targets

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/netemu"
	"repro/internal/spec"
	"repro/internal/vm"
)

// Instance is a booted target: machine, kernel, agent and spec, ready for
// fuzzing. It corresponds to the packed "share folder" plus launched VM of
// the paper's workflow (§5.4 steps iv–v).
type Instance struct {
	Info   *Info
	M      *vm.Machine
	K      *guest.Kernel
	Agent  *netemu.Agent
	Spec   *spec.Spec
	Target guest.Target
}

// LaunchConfig tunes instance creation.
type LaunchConfig struct {
	// Asan enables AddressSanitizer-like corruption detection.
	Asan bool
	// VM overrides the machine configuration when non-nil (default 4096
	// pages = 16 MiB of memory and 16,384 disk sectors).
	VM *vm.Config
}

// Launch boots a registered target in a fresh VM, runs its startup routine,
// and takes the root snapshot at the point where the target is about to
// consume the first byte of input — the automatic snapshot placement of
// §3.3.
func Launch(name string, cfg LaunchConfig) (*Instance, error) {
	info, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("targets: unknown target %q", name)
	}
	vmCfg := vm.Config{MemoryPages: 4096, DiskSectors: 1 << 14}
	if cfg.VM != nil {
		vmCfg = *cfg.VM
	}
	m := vm.New(vmCfg)
	tgt := info.New()
	k, err := guest.NewKernel(m, tgt)
	if err != nil {
		return nil, err
	}
	k.Asan = cfg.Asan
	// Startup cost: the expensive part a restarting fuzzer pays per exec
	// and a snapshot fuzzer pays exactly once.
	m.Clock.Advance(info.Startup)
	if err := m.Hypercall(vm.HcReady); err != nil {
		return nil, err
	}
	s := spec.RawPacketSpec(name, tgt.Ports())
	return &Instance{
		Info:   info,
		M:      m,
		K:      k,
		Agent:  netemu.New(m, k, s),
		Spec:   s,
		Target: tgt,
	}, nil
}

// Seeds returns the target's seed inputs against this instance's spec.
func (inst *Instance) Seeds() []*spec.Input {
	if inst.Info.Seeds == nil {
		return nil
	}
	return inst.Info.Seeds(inst.Spec)
}
