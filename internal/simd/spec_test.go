package simd

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobRequest decodes arbitrary bytes the way the POST handler does
// and runs the submit path's spec handling: normalize, fingerprint and
// Config. No input may panic, an accepted grid holds at most
// maxGridSeeds seeds, and the fingerprint is a function of the request
// alone.
func FuzzJobRequest(f *testing.F) {
	add := func(req JobRequest) {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	grid := testGridSpec()
	add(JobRequest{Kind: KindGrid, Grid: &grid})
	add(JobRequest{Kind: KindScenario, Scenario: &ScenarioJobSpec{Scenario: "crash_churn", Nodes: 40, Rounds: 3, Runs: 2}})
	for _, req := range badJobRequests() {
		add(req)
	}
	f.Add([]byte(`{"grid":{"seeds":1000000}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req JobRequest
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		if err := req.normalize(); err != nil {
			return
		}
		fp, err := req.fingerprint()
		if err != nil {
			return
		}
		if again, err := req.fingerprint(); err != nil || again != fp {
			t.Fatalf("fingerprint not repeatable: %q then %q (%v)", fp, again, err)
		}
		switch req.Kind {
		case KindGrid:
			cfg, err := req.Grid.Config()
			if err != nil {
				t.Fatalf("fingerprinted grid fails Config: %v", err)
			}
			if len(cfg.Seeds) > maxGridSeeds {
				t.Fatalf("accepted grid has %d seeds, cap %d", len(cfg.Seeds), maxGridSeeds)
			}
		case KindScenario:
			if _, err := req.Scenario.Config(); err != nil {
				t.Fatalf("fingerprinted scenario fails Config: %v", err)
			}
		}
	})
}
