package atpg

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dfg"
	"repro/internal/fault"
	"repro/internal/gates"
)

// oracleSimulate recomputes both circuits over every frame from the
// current PI assignment alone, gate by gate in levelized order: the full
// resimulation the event-driven simulate must always agree with.
func oracleSimulate(fs *frameSim) (good, bad [][]int8) {
	c, flt := fs.c, fs.flt
	good, bad = rows(fs.frames, len(c.Gates)), rows(fs.frames, len(c.Gates))
	for t := 0; t < fs.frames; t++ {
		for _, id := range fs.order {
			g := c.Gates[id]
			var gv, bv int8
			switch g.Kind {
			case gates.KInput:
				gv = fs.pi[t][fs.piIx[id]]
				bv = gv
			case gates.KDFF:
				if t > 0 {
					gv, bv = good[t-1][g.In[0]], bad[t-1][g.In[0]]
					if flt.Gate == id && flt.Pin == 0 {
						bv = bool2v(flt.Val)
					}
				}
			default:
				insG := make([]int8, len(g.In))
				insB := make([]int8, len(g.In))
				for pin, in := range g.In {
					insG[pin], insB[pin] = good[t][in], bad[t][in]
					if flt.Gate == id && flt.Pin == pin {
						insB[pin] = bool2v(flt.Val)
					}
				}
				gv, bv = eval3(g.Kind, insG), eval3(g.Kind, insB)
			}
			if flt.Gate == id && flt.Pin < 0 {
				bv = bool2v(flt.Val)
			}
			good[t][id], bad[t][id] = gv, bv
		}
	}
	return good, bad
}

// oracleObjective is objective without its shortcuts: the D-frontier
// scan visits every logic gate in every frame.
func oracleObjective(fs *frameSim) (gate, frame int, val int8, ok bool) {
	want := inv3(bool2v(fs.flt.Val))
	site := fs.siteNet()
	reExcite := func() (int, int, int8, bool) {
		for t := 0; t < fs.frames; t++ {
			if fs.good[t][site] == vX {
				return site, t, want, true
			}
		}
		return 0, 0, 0, false
	}
	if first, _ := fs.excited(); first < 0 {
		return reExcite()
	}
	bestGate, bestFrame, bestDist := -1, -1, 1<<30
	for t := 0; t < fs.frames; t++ {
		for _, id := range fs.order {
			g := fs.c.Gates[id]
			if !isLogic(g.Kind) || fs.good[t][id] != vX && fs.bad[t][id] != vX {
				continue
			}
			hasD := false
			for pin, in := range g.In {
				a, b := fs.good[t][in], fs.bad[t][in]
				if id == fs.flt.Gate && pin == fs.flt.Pin {
					b = bool2v(fs.flt.Val)
				}
				hasD = hasD || a != vX && b != vX && a != b
			}
			if hasD && fs.obsDist[id] < bestDist {
				bestGate, bestFrame, bestDist = id, t, fs.obsDist[id]
			}
		}
	}
	if bestGate < 0 {
		return reExcite()
	}
	g := fs.c.Gates[bestGate]
	nc, has := nonControlling(g.Kind)
	if !has {
		nc = v0
	}
	for _, in := range g.In {
		if fs.good[bestFrame][in] == vX {
			return in, bestFrame, nc, true
		}
	}
	return 0, 0, 0, false
}

// randomSeqCircuit builds a random acyclic-combinational sequential
// circuit: inputs, constants and flip-flop outputs feed a random gate
// network whose nets drive the flip-flop D pins and the outputs.
func randomSeqCircuit(t testing.TB, rng *rand.Rand) *gates.Circuit {
	t.Helper()
	b := gates.NewBuilder()
	var nets []int
	for i := 0; i < 2+rng.Intn(4); i++ {
		nets = append(nets, b.Input(fmt.Sprintf("x%d", i)))
	}
	ffs := make([]int, 1+rng.Intn(4))
	for i := range ffs {
		ffs[i] = b.DFF(fmt.Sprintf("q%d", i))
		nets = append(nets, ffs[i])
	}
	nets = append(nets, b.Const(rng.Intn(2) == 1))
	pick := func() int { return nets[rng.Intn(len(nets))] }
	for i := 0; i < 8+rng.Intn(24); i++ {
		var g int
		switch rng.Intn(8) {
		case 0:
			g = b.Not(pick())
		case 1:
			g = b.Buf(pick())
		case 2:
			g = b.And(pick(), pick(), pick())
		case 3:
			g = b.Or(pick(), pick())
		case 4:
			g = b.Nand(pick(), pick())
		case 5:
			g = b.Nor(pick(), pick(), pick())
		case 6:
			g = b.Xor(pick(), pick())
		default:
			g = b.Xnor(pick(), pick())
		}
		nets = append(nets, g)
	}
	for _, ff := range ffs {
		b.SetD(ff, pick())
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		b.Output(fmt.Sprintf("o%d", i), nets[len(nets)-1-i])
	}
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// allFaults lists every output and input-pin stuck-at fault of a circuit.
func allFaults(c *gates.Circuit) []fault.Fault {
	var fl []fault.Fault
	for _, g := range c.Gates {
		for pin := -1; pin < len(g.In); pin++ {
			fl = append(fl, fault.Fault{Gate: g.ID, Pin: pin, Val: false}, fault.Fault{Gate: g.ID, Pin: pin, Val: true})
		}
	}
	return fl
}

// checkEventDriven aims fs at fault f and drives a random sequence of PI
// assigns, flips and unassigns through it. After every step it checks
// the event-driven circuit values against the full-resimulation oracle
// and objective against the oracle's unrestricted D-frontier scan. A
// mid-sequence reset to another window, with events still queued, checks
// buffer reuse within a search; callers reuse fs across faults.
func checkEventDriven(t *testing.T, fs *frameSim, f fault.Fault, frames, steps int, rng *rand.Rand) {
	t.Helper()
	tb := fs.podemTables
	fs.setFault(f)
	fs.reset(frames, nil)
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			fs.assign(rng.Intn(frames), rng.Intn(len(tb.c.Inputs)), v1)
			frames = 1 + rng.Intn(frames+1)
			fs.reset(frames, nil)
		}
		tt, k := rng.Intn(frames), rng.Intn(len(tb.c.Inputs))
		switch cur := fs.pi[tt][k]; {
		case cur == vX:
			fs.assign(tt, k, int8(rng.Intn(2)))
		case rng.Intn(2) == 0:
			fs.assign(tt, k, inv3(cur)) // flip
		default:
			fs.assign(tt, k, vX) // unassign
		}
		fs.simulate()
		good, bad := oracleSimulate(fs)
		for ft := 0; ft < frames; ft++ {
			for id := range tb.c.Gates {
				if fs.good[ft][id] != good[ft][id] || fs.bad[ft][id] != bad[ft][id] {
					t.Fatalf("fault %v step %d: frame %d gate %d is %d/%d, full resimulation %d/%d",
						f, step, ft, id, fs.good[ft][id], fs.bad[ft][id], good[ft][id], bad[ft][id])
				}
			}
		}
		g1, t1, val1, ok1 := fs.objective()
		g2, t2, val2, ok2 := oracleObjective(fs)
		if g1 != g2 || t1 != t2 || val1 != val2 || ok1 != ok2 {
			t.Fatalf("fault %v step %d: cone objective (%d,%d,%d,%v), unrestricted (%d,%d,%d,%v)",
				f, step, g1, t1, val1, ok1, g2, t2, val2, ok2)
		}
	}
	// Past the reset's full pass, an implication pass evaluates each gate
	// at most once per frame.
	if full := int64(frames * len(tb.order)); fs.evals > full+fs.implications {
		t.Errorf("fault %v: %d gate evaluations exceed %d full + %d nominal", f, fs.evals, full, fs.implications)
	}
}

func TestEventDrivenMatchesFullResimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for n := 0; n < 100; n++ {
		c := randomSeqCircuit(t, rng)
		tb, err := newPodemTables(c)
		if err != nil {
			t.Fatal(err)
		}
		fs := newFrameSim(tb)
		for _, f := range allFaults(c) {
			checkEventDriven(t, fs, f, 1+rng.Intn(5), 12, rng)
		}
	}
}

func TestEventDrivenMatchesFullResimulationEx(t *testing.T) {
	c := benchCircuit(t, dfg.BenchEx, 4)
	tb, err := newPodemTables(c)
	if err != nil {
		t.Fatal(err)
	}
	// Collapsing folds D-pin faults into the flip-flop output faults, so
	// add them back: their effect enters one frame late.
	flist := fault.Collapse(c)
	for _, ff := range c.DFFs {
		flist = append(flist, fault.Fault{Gate: ff, Pin: 0, Val: false}, fault.Fault{Gate: ff, Pin: 0, Val: true})
	}
	var out, pin, dPin int
	rng := rand.New(rand.NewSource(5))
	fs := newFrameSim(tb)
	for _, f := range flist {
		switch {
		case f.Pin < 0:
			out++
		case c.Gates[f.Gate].Kind == gates.KDFF:
			dPin++
		default:
			pin++
		}
		checkEventDriven(t, fs, f, 3, 12, rng)
	}
	if out == 0 || pin == 0 || dPin == 0 {
		t.Errorf("fault list misses a class: %d output, %d input-pin, %d D-pin faults", out, pin, dPin)
	}
}

// BenchmarkPODEM runs one deterministic PODEM attempt per sampled fault
// of a Table-1 netlist (ex, width 4). evals/op counts the gate
// evaluations the event-driven simulation performed; implications/op is
// the nominal frames x gates per pass that Effort charges.
func BenchmarkPODEM(b *testing.B) {
	c := benchCircuit(b, dfg.BenchEx, 4)
	tb, err := newPodemTables(c)
	if err != nil {
		b.Fatal(err)
	}
	flist := fault.Sample(fault.Collapse(c), 100)
	fs := newFrameSim(tb)
	var evals, impl int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, f := range flist {
			fs.setFault(f)
			pr := fs.podem(4, 60, nil)
			evals += pr.GateEvals
			impl += pr.Implications
		}
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	b.ReportMetric(float64(impl)/float64(b.N), "implications/op")
}
