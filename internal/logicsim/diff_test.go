package logicsim_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/fault"
	"repro/internal/gates"
	"repro/internal/logicsim"
	"repro/internal/rtl"
	"repro/internal/scan"
)

// randomSequential builds a random synchronous circuit over every gate
// kind: PIs, constants, DFFs whose D nets include PIs and other DFFs' Q,
// multi-input gates that may read one net on several pins, and outputs on
// arbitrary nets.
func randomSequential(t *testing.T, rng *rand.Rand) *gates.Circuit {
	t.Helper()
	b := gates.NewBuilder()
	var nets []int
	for i := 0; i < 1+rng.Intn(4); i++ {
		nets = append(nets, b.Input("i"))
	}
	nets = append(nets, b.Const(false), b.Const(true))
	dffs := make([]int, rng.Intn(6))
	for i := range dffs {
		dffs[i] = b.DFF("q")
		nets = append(nets, dffs[i])
	}
	pick := func() int { return nets[rng.Intn(len(nets))] }
	picks := func() []int {
		xs := make([]int, 2+rng.Intn(3))
		for i := range xs {
			xs[i] = pick()
		}
		return xs
	}
	for i := 0; i < 8+rng.Intn(40); i++ {
		var id int
		switch rng.Intn(8) {
		case 0:
			id = b.Buf(pick())
		case 1:
			id = b.Not(pick())
		case 2:
			id = b.And(picks()...)
		case 3:
			id = b.Or(picks()...)
		case 4:
			id = b.Nand(picks()...)
		case 5:
			id = b.Nor(picks()...)
		case 6:
			id = b.Xor(pick(), pick())
		default:
			id = b.Xnor(pick(), pick())
		}
		nets = append(nets, id)
	}
	for _, q := range dffs {
		b.SetD(q, pick())
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		b.Output("o", pick())
	}
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkDiffAgainstOracle runs a differential session over flist and
// asserts, against a full resimulation (Sim with the fault injected), that
// every faulty net word matches at every cycle and that detection matches
// the final-cycle compare on the observed nets.
func checkDiffAgainstOracle(t *testing.T, c *gates.Circuit, flist []fault.Fault, init []uint64, rows [][]uint64, observe []int, mask uint64) {
	t.Helper()
	cycles := len(rows)
	good, err := logicsim.New(c)
	if err != nil {
		t.Fatal(err)
	}
	good.SetState(init)
	for _, r := range rows {
		good.Step(r)
	}
	goodFinal := append([]uint64(nil), good.Vals()...)

	oracle, err := logicsim.New(c)
	if err != nil {
		t.Fatal(err)
	}
	states := make([][]uint64, len(flist))
	for i := range states {
		states[i] = make([]uint64, len(c.DFFs))
		copy(states[i], init)
	}
	seen := make([]int, len(flist))
	wantDet := make([]bool, len(flist))
	mismatches := 0
	stim := 0
	cfg := logicsim.WithTrace(logicsim.DiffConfig{
		Cycles:   cycles,
		Init:     init,
		Stimulus: func(row []uint64) { copy(row, rows[stim]); stim++ },
		Observe:  observe,
		Mask:     mask,
		Workers:  1,
	}, func(fi, cycle int, net func(id int) uint64) {
		if cycle != seen[fi] {
			t.Fatalf("fault %v: traced cycle %d, want %d", flist[fi], cycle, seen[fi])
		}
		seen[fi]++
		oracle.Fault = &flist[fi]
		oracle.SetState(states[fi])
		oracle.Step(rows[cycle])
		copy(states[fi], oracle.State())
		for id, want := range oracle.Vals() {
			if got := net(id); got != want && mismatches < 10 {
				mismatches++
				t.Errorf("fault %v cycle %d net %d: differential %#x, oracle %#x", flist[fi], cycle, id, got, want)
			}
		}
		if cycle == cycles-1 {
			for _, o := range observe {
				if (oracle.Vals()[o]^goodFinal[o])&mask != 0 {
					wantDet[fi] = true
				}
			}
		}
	})
	res, err := logicsim.DiffSession(context.Background(), c, flist, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stim != cycles {
		t.Errorf("stimulus drawn for %d cycles, want %d", stim, cycles)
	}
	if res.Completed != len(flist) {
		t.Fatalf("completed %d of %d faults", res.Completed, len(flist))
	}
	for fi := range flist {
		if seen[fi] != cycles {
			t.Fatalf("fault %v traced %d cycles, want %d", flist[fi], seen[fi], cycles)
		}
		if res.Detected[fi] != wantDet[fi] {
			t.Errorf("fault %v: detected %v, oracle %v", flist[fi], res.Detected[fi], wantDet[fi])
		}
	}
}

// randomRows draws cycles rows of random PI words, forcing input `force`
// (when >= 0) all-ones.
func randomRows(rng *rand.Rand, cycles, nIn, force int) [][]uint64 {
	rows := make([][]uint64, cycles)
	for t := range rows {
		rows[t] = make([]uint64, nIn)
		for i := range rows[t] {
			rows[t][i] = rng.Uint64()
		}
		if force >= 0 {
			rows[t][force] = ^uint64(0)
		}
	}
	return rows
}

func randomState(rng *rand.Rand, n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = rng.Uint64()
	}
	return s
}

// The window boundary cases: one cycle, a window short of, exactly, one
// past and several windows past the forced window length.
func windowCycles(w int) []int { return []int{1, w - 1, w, w + 1, 3*w + 2} }

// Every enumerated fault (output, input-pin, PI, constant, DFF Q and DFF D)
// of random sequential circuits, across window boundaries.
func TestDiffSessionMatchesOracleRandom(t *testing.T) {
	const w = 3
	defer logicsim.SetDiffWindow(w)()
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 200; n++ {
		c := randomSequential(t, rng)
		flist := fault.Enumerate(c)
		for _, cycles := range windowCycles(w) {
			mask := rng.Uint64() | 1
			checkDiffAgainstOracle(t, c, flist, randomState(rng, len(c.DFFs)),
				randomRows(rng, cycles, len(c.Inputs), -1), c.Outputs, mask)
			if t.Failed() {
				t.Fatalf("circuit %d (%s), %d cycles", n, c.Stats(), cycles)
			}
		}
	}
}

// exBIST builds the 4-bit Ex design with a 2-TPG/2-MISR self-test wrapper
// and returns the netlist with its bist_en index and signature nets.
func exBIST(t *testing.T) (c *gates.Circuit, bistEn int, sigs []int) {
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
	c = nl.C
	bistEn = -1
	for i, id := range c.Inputs {
		if c.Gates[id].Name == "bist_en" {
			bistEn = i
		}
	}
	for i, name := range c.OutputNames {
		if len(name) > 4 && name[:4] == "sig_" {
			sigs = append(sigs, c.Outputs[i])
		}
	}
	if bistEn < 0 || len(sigs) == 0 {
		t.Fatal("Ex BIST netlist lacks bist_en or signature outputs")
	}
	return c, bistEn, sigs
}

// Every collapsed fault of a real BIST netlist, across window boundaries.
func TestDiffSessionMatchesOracleExBIST(t *testing.T) {
	c, bistEn, sigs := exBIST(t)
	const w = 4
	defer logicsim.SetDiffWindow(w)()
	rng := rand.New(rand.NewSource(11))
	flist := fault.Collapse(c)
	for _, cycles := range windowCycles(w) {
		checkDiffAgainstOracle(t, c, flist, randomState(rng, len(c.DFFs)),
			randomRows(rng, cycles, len(c.Inputs), bistEn), sigs, ^uint64(0))
		if t.Failed() {
			t.Fatalf("%d cycles", cycles)
		}
	}
}

// The result is identical at every worker count, across windows.
func TestDiffSessionWorkerEquivalence(t *testing.T) {
	c, bistEn, sigs := exBIST(t)
	defer logicsim.SetDiffWindow(16)()
	const cycles = 50
	rows := randomRows(rand.New(rand.NewSource(3)), cycles, len(c.Inputs), bistEn)
	flist := fault.Sample(fault.Collapse(c), 300)
	var ref *logicsim.DiffResult
	for _, workers := range []int{1, 2, 8} {
		stim := 0
		res, err := logicsim.DiffSession(context.Background(), c, flist, logicsim.DiffConfig{
			Cycles:   cycles,
			Stimulus: func(row []uint64) { copy(row, rows[stim]); stim++ },
			Observe:  sigs,
			Mask:     ^uint64(0),
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("workers=%d: result differs from workers=1", workers)
		}
	}
	if nominal := int64(len(c.Gates)) * cycles * int64(len(flist)+1); ref.GateEvals >= nominal {
		t.Errorf("GateEvals %d, not below the full-resimulation %d", ref.GateEvals, nominal)
	}
}

// Cancelling mid-session stops before the next window: the stimulus is
// never drawn past the window in which the context died, and no fault
// counts as completed.
func TestDiffSessionCancelStopsWithinWindow(t *testing.T) {
	c, bistEn, sigs := exBIST(t)
	const w = 8
	defer logicsim.SetDiffWindow(w)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rng := rand.New(rand.NewSource(5))
	drawn := 0
	res, err := logicsim.DiffSession(ctx, c, fault.Sample(fault.Collapse(c), 50), logicsim.DiffConfig{
		Cycles: 1 << 20,
		Stimulus: func(row []uint64) {
			for i := range row {
				row[i] = rng.Uint64()
			}
			row[bistEn] = ^uint64(0)
			if drawn++; drawn == w+w/2 {
				cancel()
			}
		},
		Observe: sigs,
		Mask:    ^uint64(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if drawn > 2*w {
		t.Errorf("stimulus drawn for %d cycles after cancelling in window 2 (window %d)", drawn, w)
	}
	if res.Completed != 0 {
		t.Errorf("completed %d faults of a cancelled multi-window session", res.Completed)
	}
}
