package simd

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/experiments"
)

// FuzzJobRequest decodes arbitrary bytes the way the POST handler does
// and resolves them through resolve, the one function Submit uses (it
// returns the grid driver's Validate error, so an accepted request
// passes Validate by construction). No input may panic; an accepted
// request of either kind stays within every job size cap; and resolving
// it twice gives the same fingerprint.
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
	f.Add([]byte(`{"kind":"scenario","scenario":{"runs":1099511627776}}`))
	f.Add([]byte(`{"grid":{"nodes":1000001,"rounds":10001}}`))
	f.Add([]byte(`{"kind":"scenario","scenario":{"nodes":1000001,"rounds":10001}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req JobRequest
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		cfg, weights, err := req.resolve()
		if err != nil {
			return
		}
		if len(cfg.Seeds) > maxGridSeeds || cfg.Nodes > maxJobNodes || cfg.Rounds > maxJobRounds {
			t.Fatalf("accepted %s job exceeds a cap: %d seeds, %d nodes, %d rounds",
				req.Kind, len(cfg.Seeds), cfg.Nodes, cfg.Rounds)
		}
		again, weightsAgain, err := req.resolve()
		if err != nil {
			t.Fatalf("second resolve failed: %v", err)
		}
		if fp, fpAgain := experiments.GridFingerprint(cfg, weights), experiments.GridFingerprint(again, weightsAgain); fp != fpAgain {
			t.Fatalf("fingerprint not repeatable: %q then %q", fp, fpAgain)
		}
	})
}
