package main

import "time"

// The host probe. Taking steal out (clock.go) leaves what the host's other
// tenants do to the time the benchmark does get: a busy hyperthread sibling
// and a polluted cache slow the same work by 20–100% for minutes on end, so
// two runs of one binary a minute apart disagree by more than any bound.
// The probe is a fixed piece of work that depends on nothing in this
// repository — updates of pseudo-random keys in two maps of its own, one
// beyond the L2 cache and one inside it, no allocation, so neither the
// engine's code nor its heap can move it. It runs for about a millisecond
// between timed units of work, and its cost over its pinned nominal cost is
// the host's slowness at that moment. Every time the benchmark reports is
// the measured time divided by the slowness around it: seconds as the
// reference host would have read them. README.md has the measurements.

const (
	probeBigKeys   = 1 << 16
	probeSmallKeys = 1 << 12
	probeOps       = 4000 // per map
)

// probeNominal is what each map's kernel costs on the reference host: its
// median on this sandbox in a spell of 2–10% steal, probed between slices of
// all four workloads at the seed commit. Changing these rescales every
// reported time.
var probeNominal = [2]time.Duration{840 * time.Microsecond, 185 * time.Microsecond}

var (
	probeBig, probeSmall = probeMap(probeBigKeys), probeMap(probeSmallKeys)
	probeState           = uint64(1)
)

const probeKeyMul = 2654435761

func probeMap(keys uint64) map[uint64]uint64 {
	m := make(map[uint64]uint64, keys)
	for i := uint64(0); i < keys; i++ {
		m[i*probeKeyMul] = i
	}
	return m
}

// probeMapOps updates and reads pseudo-random existing keys of m, each
// lookup depending on the one before.
func probeMapOps(m map[uint64]uint64, keys uint64) {
	x := probeState
	for i := 0; i < probeOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[(x>>33)%keys*probeKeyMul] += x
		x += m[(x>>20)%keys*probeKeyMul]
	}
	probeState = x
}

// probe runs both kernels on the calling thread's clock and returns the
// host's slowness: the mean of their measured cost over nominal cost.
func probe() float64 {
	t0 := onCPU()
	probeMapOps(probeBig, probeBigKeys)
	t1 := onCPU()
	probeMapOps(probeSmall, probeSmallKeys)
	t2 := onCPU()
	return (float64(t1-t0)/float64(probeNominal[0]) + float64(t2-t1)/float64(probeNominal[1])) / 2
}

// meter probes the host between consecutive units of timed work.
type meter struct{ prev float64 }

func newMeter() *meter { return &meter{prev: probe()} }

// slowness probes the host and returns its slowness over the unit of work
// that ran since the previous probe: the mean of the probes on either side.
func (m *meter) slowness() float64 {
	p := probe()
	s := (m.prev + p) / 2
	m.prev = p
	return s
}

// scale converts d, measured since the previous probe, to reference time.
func (m *meter) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) / m.slowness())
}
