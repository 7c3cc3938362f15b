package experiments

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/golden"
)

const snapshotPoolFile = "testdata/snappool_ablation.json"

// snapshotPoolCell is what one cell of the snapshot-pool ablation counted:
// its virtual elapsed time, coverage and executions, the restores and the
// full-prefix re-executions behind them, what the restores did to memory and
// disk, and, on pool cells, the pool's lookups.
type snapshotPoolCell struct {
	Target            string `json:"target"`
	Config            string `json:"config"`
	VirtNS            int64  `json:"virt_ns"`
	Edges             int    `json:"edges"`
	Execs             uint64 `json:"execs"`
	Restores          uint64 `json:"restores"`
	FullPrefixReexecs uint64 `json:"full_prefix_reexecs"`
	PagesReset        uint64 `json:"pages_reset"`
	PagesCoWBroken    uint64 `json:"pages_cow_broken"`
	Lookups           uint64 `json:"lookups,omitempty"`
	PoolHits          uint64 `json:"pool_hits,omitempty"`
	PoolMisses        uint64 `json:"pool_misses,omitempty"`
	DigestHits        uint64 `json:"digest_hits,omitempty"`
}

// TestSnapshotPoolAblationMatchesRecorded pins every counted column of the
// snapshot-pool ablation's aggressive cells: tinydtls and dnsmasq, each with
// an 8 MiB pool and with a single slot, 10 virtual seconds at seed 1, run by
// the runner AblationSnapshotPool uses. The counts are exact: a restore path
// that resets or breaks more CoW pages, or a pool that looks up, hits or
// hashes differently changes a column.
// What those paths cost in wall-clock time is the repo benchmark's per-layer
// output (bench/), not this test's.
//
// Provenance of testdata/snappool_ablation.json: recorded at the commit that
// retired the wall-clock hotpath report, equal field for field to the counted
// columns of the last report it wrote, under the mutator's draw sequence that
// takes entropy by the word. Re-recorded once since, for the change that
// stopped writing the guest's state at the end of every test case (a restore
// now charges the pages that write dirtied without making it): only
// pages_cow_broken, pages_eager_copied, eager_hits and eager_misses moved, as
// the page nothing writes any more stopped being copied eagerly; every other
// column is byte-identical. Re-recorded a second time when restores stopped
// copying predicted-hot pages up front and began aliasing every page: the
// four eager columns were dropped, and pages_cow_broken became its old value
// plus the old eager_hits (each page an eager copy used to serve is now a CoW
// break); every other column is byte-identical. Re-record with NYX_UPDATE_GOLDEN=1 only under the
// rule of the other recordings: at a tree whose behavioural difference from a
// passing tree is the one change being blessed; for anything else that
// diverges, fix the code.
func TestSnapshotPoolAblationMatchesRecorded(t *testing.T) {
	var want, got []snapshotPoolCell
	if !golden.Updating() {
		golden.Read(t, snapshotPoolFile, &want)
	}
	type cell struct {
		target, config string
		snapBudget     int64
	}
	var cells []cell
	for _, target := range []string{"tinydtls", "dnsmasq"} {
		cells = append(cells, cell{target, "pool", DefaultSnapBudget}, cell{target, "single-slot", 0})
	}
	for i, c := range cells {
		t.Run(c.target+"/"+c.config, func(t *testing.T) {
			f, inst, err := runSnapshotCell(c.target, core.PolicyAggressive, 10*time.Second, 1, c.snapBudget)
			if err != nil {
				t.Fatal(err)
			}
			ms := inst.M.Stats()
			g := snapshotPoolCell{
				Target:            c.target,
				Config:            c.config,
				VirtNS:            f.Elapsed().Nanoseconds(),
				Edges:             f.Coverage(),
				Execs:             f.Execs(),
				Restores:          ms.RootRestores + ms.IncRestores,
				FullPrefixReexecs: f.FullPrefixReexecs(),
				PagesReset:        inst.M.Mem.Stats().PagesReset,
				PagesCoWBroken:    ms.PagesCoWBroken,
			}
			if f.PoolEnabled() {
				ps := f.PoolStats()
				g.Lookups, g.PoolHits, g.PoolMisses, g.DigestHits = ps.Lookups, ps.Hits, ps.Misses, ps.DigestHits
			}
			got = append(got, g)
			if golden.Updating() {
				return
			}
			if i >= len(want) {
				t.Fatalf("no recording for cell %d", i)
			}
			if g != want[i] {
				t.Fatalf("cell diverged from the recorded run:\n got %+v\nwant %+v", g, want[i])
			}
		})
	}
	if golden.Updating() {
		if len(got) != len(cells) {
			t.Fatalf("not re-recording: %d of %d cells ran to the end", len(got), len(cells))
		}
		golden.Write(t, snapshotPoolFile, got)
	}
}
