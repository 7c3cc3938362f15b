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
	Target             string `json:"target"`
	Config             string `json:"config"`
	VirtNS             int64  `json:"virt_ns"`
	Edges              int    `json:"edges"`
	Execs              uint64 `json:"execs"`
	Restores           uint64 `json:"restores"`
	FullPrefixReexecs  uint64 `json:"full_prefix_reexecs"`
	PagesReset         uint64 `json:"pages_reset"`
	PagesCoWBroken     uint64 `json:"pages_cow_broken"`
	PagesEagerCopied   uint64 `json:"pages_eager_copied"`
	EagerHits          uint64 `json:"eager_hits"`
	EagerMisses        uint64 `json:"eager_misses"`
	SectorsEagerCopied uint64 `json:"sectors_eager_copied"`
	Lookups            uint64 `json:"lookups,omitempty"`
	PoolHits           uint64 `json:"pool_hits,omitempty"`
	PoolMisses         uint64 `json:"pool_misses,omitempty"`
	DigestHits         uint64 `json:"digest_hits,omitempty"`
}

// TestSnapshotPoolAblationMatchesRecorded pins every counted column of the
// snapshot-pool ablation's aggressive cells: tinydtls and dnsmasq, each with
// an 8 MiB pool and with a single slot, 10 virtual seconds at seed 1, run by
// the runner AblationSnapshotPool uses. The counts are exact: a restore path
// that breaks more CoW pages, a write-set predictor that copies more or hits
// less, or a pool that looks up, hits or hashes differently changes a column.
// What those paths cost in wall-clock time is the repo benchmark's per-layer
// output (bench/), not this test's.
//
// Provenance of testdata/snappool_ablation.json: recorded at the commit that
// retired the wall-clock hotpath report, equal field for field to the counted
// columns of the last report it wrote, under the mutator's draw sequence that
// takes entropy by the word. Re-record with NYX_UPDATE_GOLDEN=1 only under the
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
				Target:             c.target,
				Config:             c.config,
				VirtNS:             f.Elapsed().Nanoseconds(),
				Edges:              f.Coverage(),
				Execs:              f.Execs(),
				Restores:           ms.RootRestores + ms.IncRestores,
				FullPrefixReexecs:  f.FullPrefixReexecs(),
				PagesReset:         inst.M.Mem.Stats().PagesReset,
				PagesCoWBroken:     ms.PagesCoWBroken,
				PagesEagerCopied:   ms.PagesEagerCopied,
				EagerHits:          ms.EagerHits,
				EagerMisses:        ms.EagerMisses,
				SectorsEagerCopied: ms.SectorsEagerCopied,
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
