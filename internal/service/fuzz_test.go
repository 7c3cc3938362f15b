package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSpecDecode feeds arbitrary bytes to the decoder POST /api/campaigns
// runs on a request body, seeded with a service test's spec, the CI service
// smoke test's, one that sets every field, and the corpus under
// testdata/fuzz. Inputs over 4 KiB are skipped: a real spec is a few hundred
// bytes. Whatever decodes, campaignConfig validates without panicking, and a
// spec it accepts comes back unchanged, and maps to the same campaign
// configuration, after json.Marshal and json.Unmarshal — the path a spec
// takes into a checkpoint tree and out of it again when a restarted service
// recovers the campaign.
func FuzzSpecDecode(f *testing.F) {
	for _, s := range []Spec{
		testSpec("c1", 1, 2e9),
		{Target: "tinydtls", Duration: 2e9, Workers: 2, Seed: 7, SyncInterval: 5e8},
		{ID: "full", Target: "dnsmasq", Duration: 1, Workers: 3, Policy: "balanced", Sched: "rr",
			Power: "coe", Seed: -1, SyncInterval: 1e8, SnapBudget: 1 << 20, Asan: true, SyncMode: "async"},
	} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 4<<10 {
			return
		}
		var spec Spec
		if json.NewDecoder(bytes.NewReader(body)).Decode(&spec) != nil {
			return
		}
		cfg, err := spec.campaignConfig()
		if err != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("encoding an accepted spec: %v", err)
		}
		var back Spec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("decoding an encoded spec: %v\n%s", err, enc)
		}
		if back != spec {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", back, spec)
		}
		if again, err := back.campaignConfig(); err != nil || !reflect.DeepEqual(again, cfg) {
			t.Fatalf("the round-tripped spec maps to %+v, %v; want %+v", again, err, cfg)
		}
	})
}
