package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestParallelScaling(t *testing.T) {
	cfg := Config{CampaignTime: 2 * time.Second, Seed: 1, Targets: []string{"lightftp"}}
	rows, err := ParallelScaling(cfg, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].SpeedupX != 1 || rows[0].CoverageX != 1 {
		t.Fatalf("baseline row not normalized: %+v", rows[0])
	}
	for i, r := range rows {
		if r.Coverage == 0 || r.Execs == 0 {
			t.Fatalf("row %d found nothing: %+v", i, r)
		}
	}
	// Aggregate throughput must scale with workers (virtual-time clocks
	// are per worker, so the ideal line is linear; require >75% of it).
	if rows[2].SpeedupX < 3.0 {
		t.Fatalf("4 workers speed up only %.2fx over 1", rows[2].SpeedupX)
	}
	// More workers with corpus sync never lose coverage.
	if rows[2].Coverage < rows[0].Coverage {
		t.Fatalf("4-worker coverage %d < 1-worker %d", rows[2].Coverage, rows[0].Coverage)
	}
	out := RenderParallelScaling(rows)
	if !strings.Contains(out, "Workers") || len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Fatalf("bad render:\n%s", out)
	}
}
