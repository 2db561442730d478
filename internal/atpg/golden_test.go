package atpg_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/report"
	"repro/internal/rtl"
)

// goldenCampaigns pins atpg.Run byte-identity on the 12 width-4 table
// cells (Tables 1-3 benchmarks x the four flows) at seed 1998 with a
// 200-fault sample: a hash of Outcomes, Effort, TestCycles, TestSet and
// Coverage per cell. The hashes were recorded from the full-resimulation
// PODEM before implication became event-driven; any change to the search
// order, the effort accounting or the generated tests shows up here.
var goldenCampaigns = map[string]string{
	"ex/camad/w4":         "84b44298cc759201",
	"ex/approach1/w4":     "3554a274c67a2bb9",
	"ex/approach2/w4":     "3554a274c67a2bb9",
	"ex/ours/w4":          "1cb03ef738137392",
	"dct/camad/w4":        "8ca7397996179ba8",
	"dct/approach1/w4":    "befa4694732d17ce",
	"dct/approach2/w4":    "befa4694732d17ce",
	"dct/ours/w4":         "b6e329dc8c0fa600",
	"diffeq/camad/w4":     "55a0197613cbe9ef",
	"diffeq/approach1/w4": "739befe43b20a701",
	"diffeq/approach2/w4": "739befe43b20a701",
	"diffeq/ours/w4":      "94d4d54246a64be9",
}

// campaignDigest hashes every figure of a campaign the golden pins.
func campaignDigest(r *atpg.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v|%d|%d|%v|%v", r.Outcomes, r.Effort, r.TestCycles, r.TestSet, r.Coverage)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func TestGoldenCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes and runs ATPG on 12 table cells")
	}
	const width = 4
	cfg := report.DefaultConfig(1998)
	for _, bench := range []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq} {
		g, err := dfg.ByName(bench, width)
		if err != nil {
			t.Fatal(err)
		}
		for _, method := range core.Methods() {
			key := fmt.Sprintf("%s/%s/w%d", bench, method, width)
			par := cfg.ParamsFor(width)
			par.Width = width
			if bench == dfg.BenchDiffeq {
				par.LoopSignal = "exit"
			}
			res, err := core.Run(method, g, par)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			nl, err := rtl.Generate(res.Design, width, rtl.NormalMode)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			acfg := cfg.ATPGFor(width)
			acfg.SampleFaults = 200
			if acfg.MaxFrames < 2*(nl.Steps+1) {
				acfg.MaxFrames = 2 * (nl.Steps + 1)
			}
			for _, workers := range []int{1, 3} {
				acfg.Workers = workers
				r, err := atpg.Run(nl.C, acfg)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got, want := campaignDigest(r), goldenCampaigns[key]; got != want {
					t.Errorf("%s workers=%d: campaign digest %s, want %s", key, workers, got, want)
				}
			}
		}
	}
}
