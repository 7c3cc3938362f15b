package core_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// At every pick of every worker of a 2-worker lockstep dnsmasq campaign, and
// of the campaign resumed from its checkpoint, the favored set must be the
// one the full cover walk picks. The campaign brings what a solo run does
// not: imported entries, the broker's demotions, and queues rebuilt from a
// checkpoint.
func TestCullMatchesCoverWalkInCampaign(t *testing.T) {
	var mu sync.Mutex
	var failed error
	picks := 0
	core.SetPickHook(func(f *core.Fuzzer) {
		err := core.CheckCull(f)
		mu.Lock()
		defer mu.Unlock()
		picks++
		if failed == nil && err != nil {
			failed = err
		}
	})
	defer core.SetPickHook(nil)

	c, err := campaign.New(campaign.Config{
		Target:       "dnsmasq",
		Workers:      2,
		Policy:       core.PolicyAggressive,
		Seed:         1,
		SyncInterval: 250 * time.Millisecond,
		SnapBudget:   8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	tree, err := c.CheckpointTree()
	if err != nil {
		t.Fatal(err)
	}
	if c, err = campaign.ResumeTree(tree); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if failed != nil {
		t.Fatal(failed)
	}
	t.Logf("%d picks over %d corpus entries, %d deduped", picks, c.CorpusSize(), c.Deduped())
	if picks < 100 {
		t.Fatalf("only %d picks: too few to tell", picks)
	}
}
