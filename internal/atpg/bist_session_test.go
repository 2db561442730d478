package atpg_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/exec"
	"repro/internal/rtl"
	"repro/internal/scan"
)

// exBISTNetlist is the 4-bit Ex design with a 2-TPG/2-MISR wrapper.
func exBISTNetlist(t *testing.T) *rtl.Netlist {
	t.Helper()
	g, err := dfg.ByName(dfg.BenchEx, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(g, core.DefaultParams(4))
	if err != nil {
		t.Fatal(err)
	}
	tpg, misr := scan.SelectBIST(res.Design, res.Metrics, 2, 2)
	nl, err := rtl.GenerateBIST(res.Design, 4, rtl.NormalMode, tpg, misr)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// The outcome — GateEvals included — is identical at every worker count.
func TestBISTWorkerEquivalence(t *testing.T) {
	nl := exBISTNetlist(t)
	for _, base := range []atpg.BISTConfig{{}, {Lanes: 1}, {TPGRegs: nl.BISTTpg}} {
		var ref *atpg.BISTOutcome
		for _, workers := range []int{1, 2, 8} {
			cfg := base
			cfg.Workers = workers
			out, err := atpg.RunBISTCfgCtx(context.Background(), nl.C, 200, 100, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = out
				continue
			}
			if !reflect.DeepEqual(out, ref) {
				t.Errorf("lanes=%d workers=%d: %+v, workers=1: %+v", base.Lanes, workers, out, ref)
			}
		}
		nominal := int64(nl.C.NumGates()) * (ref.Passes + int64(ref.Cycles))
		if ref.GateEvals <= 0 || ref.GateEvals >= nominal {
			t.Errorf("lanes=%d: GateEvals %d, want in (0, %d)", base.Lanes, ref.GateEvals, nominal)
		}
	}
}

// allocBytes reports the heap bytes one call of fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Session memory does not grow with the cycle count: the stimulus is
// streamed and the good trajectory is capped by the window budget, which a
// 1k-cycle session on this netlist already exceeds. The old evaluator
// materialised every stimulus row, 13 MiB more at 100k cycles.
func TestBISTSessionMemoryFlatInCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 100k-cycle session")
	}
	nl := exBISTNetlist(t)
	session := func(cycles int) uint64 {
		return allocBytes(func() {
			out, err := atpg.RunBISTCfgCtx(context.Background(), nl.C, 8, cycles, atpg.BISTConfig{Workers: 1})
			if err != nil || out.Status != exec.StatusComplete {
				t.Fatalf("%d cycles: %v %+v", cycles, err, out)
			}
		})
	}
	short, long := session(1000), session(100000)
	if long > short+256<<10 {
		t.Errorf("100k-cycle session allocated %d bytes, 1k-cycle %d: memory grows with cycles", long, short)
	}
}

// A cancelled long session returns promptly with the completed prefix of
// faults (empty: no fault reached the final window), tagged partial.
func TestBISTLongSessionDeadline(t *testing.T) {
	nl := exBISTNetlist(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	out, err := atpg.RunBISTCfgCtx(ctx, nl.C, 200, 1<<26, atpg.BISTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled session took %v to return", d)
	}
	if out.Status != exec.StatusPartial || out.Exhausted != exec.BudgetDeadline || out.Evaluated != 0 || out.Passes != 0 {
		t.Errorf("cancelled session misreported: %+v", out)
	}
}
