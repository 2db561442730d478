package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/validate"
)

// synth-sweep: synthesis alone. One caller synthesizes one design at a
// time (closed loop); a design is one behaviour run through all four
// flows at width 8. The behaviours are EWF plus seeded generated graphs
// of 24-40 ops covering every shape, two of them looping. No netlist, no
// ATPG: the merger loop and the stages under it do all the work.
const (
	synthWidth    = 8
	synthGenSpecs = 12
	synthSimVecs  = 4 // seeded input vectors for the RT-level equivalence check
	synthEWFName  = dfg.BenchEWF
)

// synthSpecs returns the generated behaviours of the sweep. The corpus is
// fixed, so designs_per_s always compares the same work: the generated
// graphs differ up to eightfold in synthesis time, and a corpus drawn
// afresh per seed moved the figure by more than any bound could allow.
func synthSpecs() []dfggen.Spec {
	shapes := dfggen.Shapes() // mesh, wide, deep, diamond
	mixes := []string{"mixed", "arith", "diffeq", "cmp"}
	ops := []int{24, 28, 32, 36, 40, 26, 30, 34, 38, 24, 32, 40}
	specs := make([]dfggen.Spec, synthGenSpecs)
	s := splitmix{0x5EED5EED}
	for i := range specs {
		specs[i] = dfggen.Spec{
			Seed:  s.next() % 1_000_000,
			Ops:   ops[i],
			Mix:   mixes[(i+i/4)%len(mixes)],
			Shape: shapes[i%len(shapes)],
			Loop:  i%4 == 3, // one looping spec per four
		}
	}
	return specs
}

// synthDesign is one behaviour of the sweep.
type synthDesign struct {
	Name  string
	Graph *dfg.Graph
	Loop  string
}

// synthInputs is everything the synth-sweep set-up generates. The seed
// picks the design the cycle starts at and the input vectors of the
// equivalence check.
type synthInputs struct {
	Seed    uint64
	First   int
	Designs []synthDesign
	Params  core.Params
}

func newSynthInputs(seed uint64, workers int, tr *tracer) (*synthInputs, error) {
	in := &synthInputs{Seed: seed}
	in.Params = report.DefaultConfig(0).ParamsFor(synthWidth)
	in.Params.Width = synthWidth
	in.Params.Workers = workers
	ewf, err := dfg.ByName(synthEWFName, synthWidth)
	if err != nil {
		return nil, err
	}
	in.Designs = append(in.Designs, synthDesign{Name: synthEWFName, Graph: ewf})
	for i, spec := range synthSpecs() {
		sp := tr.start("dfggen", -1, int64(i))
		g, err := dfggen.Generate(spec, synthWidth)
		tr.finish(sp)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", spec.Name(), err)
		}
		in.Designs = append(in.Designs, synthDesign{Name: spec.Name(), Graph: g, Loop: dfggen.LoopSignal(spec.Name())})
	}
	in.First = int(seed % uint64(len(in.Designs)))
	return in, nil
}

// designRun keeps one timed design's results for the checks.
type designRun struct {
	Design  synthDesign
	Elapsed time.Duration
	Err     error
	St      *stats.Stats
	Results []*core.Result // one per flow, in core.Methods order
}

func runDesign(ctx context.Context, in *synthInputs, d synthDesign, tr *tracer, id int64) *designRun {
	r := &designRun{Design: d, St: stats.New()}
	par := in.Params
	par.LoopSignal = d.Loop
	par.Stats = r.St
	start := time.Now()
	unit := tr.start("design", -1, id)
	for _, m := range core.Methods() {
		sp := tr.start("core", unit, id)
		res, err := core.RunCtx(ctx, m, d.Graph, par)
		tr.finish(sp)
		if err != nil {
			r.Err = fmt.Errorf("%s/%s: %w", d.Name, m, err)
			break
		}
		r.Results = append(r.Results, res)
	}
	tr.finish(unit)
	r.Elapsed = time.Since(start)
	return r
}

// designDigest hashes every flow's reported figures, schedule and
// allocation.
func designDigest(r *designRun) string {
	var fields []any
	for _, res := range r.Results {
		g := res.Design.G
		fields = append(fields, res.Method, res.ExecTime, res.Area.Total, res.Mux.Muxes, res.Mux.Inputs,
			res.Design.Alloc.NumModules(), res.Design.Alloc.NumRegs(), res.Design.SelfLoops(),
			res.Design.Sched.String(g), res.Design.Alloc.String(g), res.Status)
	}
	return digest(fields...)
}

// checkDesign runs the correctness gates of one design.
func checkDesign(r *designRun, seed uint64, want map[string]string) []string {
	if r.Err != nil {
		return []string{r.Err.Error()}
	}
	var bad []string
	for _, res := range r.Results {
		key := r.Design.Name + "/" + res.Method
		if err := validate.Design(res.Design); err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", key, err))
		}
		if err := checkRTLevel(r.Design.Graph, res.Design, synthWidth, seed, synthSimVecs); err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", key, err))
		}
	}
	if got := designDigest(r); want[r.Design.Name] != got {
		bad = append(bad, fmt.Sprintf("%s: design digest %s, recorded %q", r.Design.Name, got, want[r.Design.Name]))
	}
	return bad
}

// runSynth is the synth-sweep workload.
func runSynth(ctx context.Context, cfg *runConfig) (*outcome, error) {
	tr := cfg.Trace
	if tr != nil {
		tr.roots = "design"
	}
	first := true
	// Set-up is ~15 ms, so it is repeated 9 times for a steady median.
	in, setupS, err := measureSetup(9, func() (*synthInputs, error) {
		// Only the first set-up is traced, so dfggen.busy_s counts one
		// generation of the inputs.
		t := tr
		if !first {
			t = nil
		}
		first = false
		in, err := newSynthInputs(cfg.Seed, cfg.Workers, t)
		if err != nil {
			return nil, err
		}
		// Warm-up: one synthesis, so code pages and the heap are in place
		// before timing.
		if _, err := core.RunCtx(ctx, core.MethodApproach1, in.Designs[0].Graph, in.Params); err != nil {
			return nil, err
		}
		return in, nil
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("synth-sweep set-up: %w", err)
	}
	want := goldenFor("synth-sweep", "corpus")
	out := &outcome{Metrics: map[string]float64{}, ExactScope: "corpus"}

	// Measurement window: designs in order from the seed's first, cycling,
	// until the window has closed and every design has run at least once;
	// each is checked right after it ran, outside its timed region.
	window := time.Duration(cfg.Seconds) * time.Second
	lat := passTimer{}
	agg := newLayerTotals()
	rss := startRSS()
	start := time.Now()
	for i := 0; i < len(in.Designs) || time.Since(start) < window; i++ {
		d := in.Designs[(in.First+i)%len(in.Designs)]
		runtime.GC() // no collection debt carried into the timed design
		r := runDesign(ctx, in, d, tr, int64(i))
		out.Attempted++
		if bad := checkDesign(r, in.Seed, want); len(bad) > 0 {
			out.Problems = append(out.Problems, bad...)
			out.Failed++
		} else {
			lat.add(d.Name, r.Elapsed)
			out.recordExact(d.Name+"/core.evaluations", r.St.Value("core.evaluations"))
			out.recordExact(d.Name+"/core.prunes", r.St.Value("core.prunes"))
			if i < len(in.Designs) {
				// The per-layer figures cover the first pass, every design
				// once, so their counts repeat exactly from run to run.
				agg.merge(r.St)
			}
		}
		if ctx.Err() != nil {
			break
		}
	}
	rssMB := rss.p95()
	if tr == nil {
		endToEndClosed(out, setupS, rssMB, lat)
		return out, nil
	}
	self := selfTimes(tr.snapshot(), int64(len(in.Designs)))
	m := out.Metrics
	addCoreLayers(m, agg, self)
	m["dfggen.busy_s"] = self["dfggen"].Seconds()
	tracedClosed(out, lat)
	return out, nil
}
