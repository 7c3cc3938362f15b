// Package golden reads and re-records the JSON recordings under testdata
// that pin seeded behaviour:
//
//   - internal/campaign/testdata/lockstep_golden.json (TestLockstepGolden)
//   - internal/campaign/testdata/recorded_campaign.json
//     (TestStopAndGoMatchesRecordedCampaign)
//   - internal/core/testdata/recorded_campaign.json
//     (TestSharedInputsMatchRecordedCampaign)
//   - internal/targets/testdata/state_images.json
//     (TestEveryTargetStateImageMatchesRecorded)
//   - internal/experiments/testdata/snappool_ablation.json
//     (TestSnapshotPoolAblationMatchesRecorded)
//
// A test compares what it produced with the recording, or, when
// NYX_UPDATE_GOLDEN is set, writes what it produced as the new recording.
// The rule for setting it is in the tests' provenance comments: only at a
// tree whose behavioural difference from a passing tree is the one change
// being blessed.
package golden

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Updating reports whether this run re-records instead of comparing.
func Updating() bool { return os.Getenv("NYX_UPDATE_GOLDEN") != "" }

// Read decodes the recording in file into v.
func Read(t testing.TB, file string, v any) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("missing recording (generate with NYX_UPDATE_GOLDEN=1): %v", err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
}

// Write re-records file as the indented JSON of v. A test that has failed
// holds a partial or a wrong v: it keeps the old recording and says so.
func Write(t testing.TB, file string, v any) {
	t.Helper()
	if t.Failed() {
		t.Fatalf("not re-recording %s: the test failed", file)
	}
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, append(enc, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("updated %s", file)
}
