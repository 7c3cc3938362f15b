package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// FuzzSpecDecode feeds arbitrary bytes to decodeSpec, the decoder
// POST /api/campaigns runs on a request body, seeded with a service test's
// spec, the CI service smoke test's, one that sets every field, and the
// corpus under testdata/fuzz. Inputs over maxSpecBytes are skipped: the
// handler refuses them before they decode. Whatever decodes, validate runs
// without panicking, and a spec it accepts comes back unchanged after
// json.Marshal and decodeSpec — the path a status takes out of the API and
// back in as a submission.
func FuzzSpecDecode(f *testing.F) {
	for _, s := range []Spec{
		testSpec("c1", 1, 2e9),
		{Duration: 2e9, Config: campaign.Config{Target: "tinydtls", Workers: 2, Seed: 7, SyncInterval: 5e8}},
		{ID: "full", Duration: 1, Config: campaign.Config{Target: "dnsmasq", Workers: 3, Policy: core.PolicyBalanced,
			Sched: core.SchedRoundRobin, Power: core.PowerCoe, Seed: -1, SyncInterval: 1e8, SnapBudget: 1 << 20,
			Asan: true, SyncMode: campaign.SyncAsync}},
	} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxSpecBytes {
			return
		}
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil || spec.validate() != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("encoding an accepted spec: %v", err)
		}
		back, err := decodeSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decoding an encoded spec: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", back, spec)
		}
	})
}

// decodeSpec gives a spec that names no policy the aggressive one and every
// other key it leaves out Config's zero value, and refuses an enum name no
// flag takes — the empty one included for policy and sched.
func TestDecodeSpecDefaults(t *testing.T) {
	spec, err := decodeSpec(bytes.NewReader([]byte(`{"target":"x","duration_ns":1}`)))
	want := Spec{Duration: 1, Config: campaign.Config{Target: "x", Policy: core.PolicyAggressive}}
	if err != nil || !reflect.DeepEqual(spec, want) {
		t.Fatalf("decodeSpec = %+v, %v; want %+v", spec, err, want)
	}
	for _, body := range []string{
		`{"target":"x","duration_ns":1,"policy":""}`,
		`{"target":"x","duration_ns":1,"sched":""}`,
		`{"target":"x","duration_ns":1,"policy":"bogus"}`,
		`{"target":"x","duration_ns":1,"sync_mode":"bogus"}`,
	} {
		if spec, err := decodeSpec(bytes.NewReader([]byte(body))); err == nil {
			t.Errorf("decodeSpec(%s) = %+v, want an error", body, spec)
		}
	}
	if err := (Spec{Duration: time.Second, Config: campaign.Config{Target: "x", Power: core.PowerCoe,
		Sched: core.SchedRoundRobin}}).validate(); err == nil {
		t.Error("validate accepted a power schedule on the round-robin scheduler")
	}
}
