package atpg_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/report"
	"repro/internal/rtl"
	"repro/internal/scan"
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

// goldenBIST pins the BIST session outcome on the same 12 width-4 table
// cells with a 2-TPG/2-MISR self-test netlist, 200 sampled faults and 100
// cycles, under three session shapes: 64 lanes at the default seed, one
// lane (the historical single session), and 64 lanes with per-lane TPG
// seeding. Each digest hashes Detected, Evaluated, Passes, Coverage and
// Status. They were recorded from the full-resimulation evaluator, before
// sessions became differential.
var goldenBIST = map[string]string{
	"ex/camad/w4/lanes64":         "d8f02618893c65fe",
	"ex/camad/w4/lanes1":          "d4811bfb2d5fe9c0",
	"ex/camad/w4/tpg":             "d8f02618893c65fe",
	"ex/approach1/w4/lanes64":     "85f1d239d4c2e856",
	"ex/approach1/w4/lanes1":      "b9f3ccff4d764ccd",
	"ex/approach1/w4/tpg":         "1481beba1ff75245",
	"ex/approach2/w4/lanes64":     "85f1d239d4c2e856",
	"ex/approach2/w4/lanes1":      "b9f3ccff4d764ccd",
	"ex/approach2/w4/tpg":         "1481beba1ff75245",
	"ex/ours/w4/lanes64":          "dc1b8fc988c77fea",
	"ex/ours/w4/lanes1":           "a8be24658edb4a5d",
	"ex/ours/w4/tpg":              "27011c65d824b82c",
	"dct/camad/w4/lanes64":        "8614be47fd1a37fb",
	"dct/camad/w4/lanes1":         "a7c0f4a52b7ca885",
	"dct/camad/w4/tpg":            "8614be47fd1a37fb",
	"dct/approach1/w4/lanes64":    "b223b11e0bb66c2a",
	"dct/approach1/w4/lanes1":     "a92171c45a38a8be",
	"dct/approach1/w4/tpg":        "297eeea4ee924ecb",
	"dct/approach2/w4/lanes64":    "b223b11e0bb66c2a",
	"dct/approach2/w4/lanes1":     "a92171c45a38a8be",
	"dct/approach2/w4/tpg":        "297eeea4ee924ecb",
	"dct/ours/w4/lanes64":         "986fb289f2f90d6f",
	"dct/ours/w4/lanes1":          "1884f037423cca4a",
	"dct/ours/w4/tpg":             "1481beba1ff75245",
	"diffeq/camad/w4/lanes64":     "b9f3ccff4d764ccd",
	"diffeq/camad/w4/lanes1":      "b2e2ccc3a7054eb6",
	"diffeq/camad/w4/tpg":         "fb7f8e779766db95",
	"diffeq/approach1/w4/lanes64": "27011c65d824b82c",
	"diffeq/approach1/w4/lanes1":  "854f98fd1a03c17f",
	"diffeq/approach1/w4/tpg":     "27011c65d824b82c",
	"diffeq/approach2/w4/lanes64": "27011c65d824b82c",
	"diffeq/approach2/w4/lanes1":  "854f98fd1a03c17f",
	"diffeq/approach2/w4/tpg":     "27011c65d824b82c",
	"diffeq/ours/w4/lanes64":      "1d32f2cfb704d75d",
	"diffeq/ours/w4/lanes1":       "86dbf22050448554",
	"diffeq/ours/w4/tpg":          "1d32f2cfb704d75d",
}

// bistDigest hashes every figure of a BIST outcome the golden pins.
func bistDigest(o *atpg.BISTOutcome) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%d|%d|%v|%v", o.Detected, o.Evaluated, o.Passes, o.Coverage, o.Status)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func TestGoldenBIST(t *testing.T) {
	const width, faults, cycles = 4, 200, 100
	cfg := report.DefaultConfig(1998)
	for _, bench := range []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq} {
		g, err := dfg.ByName(bench, width)
		if err != nil {
			t.Fatal(err)
		}
		for _, method := range core.Methods() {
			par := cfg.ParamsFor(width)
			par.Width = width
			if bench == dfg.BenchDiffeq {
				par.LoopSignal = "exit"
			}
			res, err := core.Run(method, g, par)
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, method, err)
			}
			tpg, misr := scan.SelectBIST(res.Design, res.Metrics, 2, 2)
			nl, err := rtl.GenerateBIST(res.Design, width, rtl.NormalMode, tpg, misr)
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, method, err)
			}
			for _, sc := range []struct {
				name string
				cfg  atpg.BISTConfig
			}{
				{"lanes64", atpg.BISTConfig{}},
				{"lanes1", atpg.BISTConfig{Lanes: 1}},
				{"tpg", atpg.BISTConfig{TPGRegs: nl.BISTTpg}},
			} {
				key := fmt.Sprintf("%s/%s/w%d/%s", bench, method, width, sc.name)
				out, err := atpg.RunBISTCfgCtx(context.Background(), nl.C, faults, cycles, sc.cfg)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got, want := bistDigest(out), goldenBIST[key]; got != want {
					t.Errorf("%s: BIST digest %s, want %s", key, got, want)
				}
			}
		}
	}
}
