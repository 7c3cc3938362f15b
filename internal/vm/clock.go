// Package vm assembles the simulated virtual machine: guest physical memory,
// emulated devices, a virtual clock with a calibrated cost model, and the
// hypercall interface the in-guest agent uses to drive the snapshot
// lifecycle (§2.3, §4.2, §4.3 of the Nyx-Net paper).
package vm

import (
	"fmt"
	"time"
)

// Clock is a deterministic virtual clock. All simulated work advances it
// explicitly; campaigns measure "24 hours" against this clock so that
// experiments are laptop-scale and perfectly reproducible.
type Clock struct {
	now time.Duration
}

// Now returns the current virtual time since boot.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d (which must be non-negative).
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vm: negative clock advance %v", d))
	}
	c.now += d
}

// CostModel holds the virtual-time charges for simulated operations. The
// defaults are calibrated against the constants the paper publishes:
// resetting the root snapshot of a small target about 12,000 times per
// second (§4.2), incremental snapshot creation about as cheap as one reset,
// real-socket operations orders of magnitude more expensive than emulated
// ones, and AFLnet-style fixed sleeps dominating everything else (§2.1).
// PerBitmapPage and DeviceResetSerial are the reset baselines' prices, as
// RealConnect is the baseline executors': the machine resets through its
// dirty stack and structured device reset and never charges them.
type CostModel struct {
	// Snapshot machinery.
	RootRestoreBase   time.Duration // fixed cost of a root reset
	IncCreateBase     time.Duration // fixed cost of creating an incremental snapshot
	IncRestoreBase    time.Duration // fixed cost of restoring it
	PerDirtyPage      time.Duration // per dirty page reset/copy cost
	PerBitmapPage     time.Duration // per *total* page cost of a KVM/Agamotto bitmap walk; read only by experiments.AblationDirtyTracking
	DeviceResetFast   time.Duration // Nyx-Net structured device reset
	DeviceResetSerial time.Duration // QEMU-style serialize/deserialize reset; read only by experiments.AblationDeviceReset
	PerDirtySector    time.Duration // block device dirty sector handling

	// Guest operations.
	Syscall        time.Duration // generic cheap syscall
	EmulatedRecv   time.Duration // hooked recv/read serving bytecode data
	EmulatedPoll   time.Duration // hooked select/poll/epoll
	DeliveryOver   time.Duration // per-packet agent overhead: bytecode VM dispatch, state sync
	RealConnect    time.Duration // establishing a real TCP connection
	RealSendRecv   time.Duration // real socket send/recv (kernel net stack)
	Fork           time.Duration // fork() a guest process
	PageFault      time.Duration // first-touch page cost
	HypercallEntry time.Duration // VM exit + hypervisor dispatch
}

// DefaultCostModel returns the calibrated cost model used by all
// experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		RootRestoreBase:   55 * time.Microsecond,
		IncCreateBase:     65 * time.Microsecond,
		IncRestoreBase:    55 * time.Microsecond,
		PerDirtyPage:      95 * time.Nanosecond,
		PerBitmapPage:     6 * time.Nanosecond,
		DeviceResetFast:   6 * time.Microsecond,
		DeviceResetSerial: 480 * time.Microsecond,
		PerDirtySector:    180 * time.Nanosecond,

		Syscall:        220 * time.Nanosecond,
		EmulatedRecv:   260 * time.Nanosecond,
		EmulatedPoll:   200 * time.Nanosecond,
		DeliveryOver:   60 * time.Microsecond,
		RealConnect:    140 * time.Microsecond,
		RealSendRecv:   28 * time.Microsecond,
		Fork:           320 * time.Microsecond,
		PageFault:      900 * time.Nanosecond,
		HypercallEntry: 1200 * time.Nanosecond,
	}
}
