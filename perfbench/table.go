package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/rtl"
	"repro/internal/scan"
	"repro/internal/stats"
	"repro/internal/validate"
)

// table-pipeline: the paper-reproduction job. One caller runs one cell at
// a time (closed loop): Tables 1-3 (ex, dct, diffeq) x the four flows x
// widths 4 and 8, each cell synthesis -> netlist -> fault collapse ->
// ATPG, then a 2-TPG/2-MISR BIST session.
const (
	tableFaults     = 200 // fixed ATPG fault sample per cell
	tableBISTTPG    = 2
	tableBISTMISR   = 2
	tableBISTFaults = 200
	tableBISTCycles = 100
	tableInterpVecs = 4 // seeded input vectors for the gate-level equivalence check
)

// cellSpec identifies one table cell.
type cellSpec struct {
	Bench  string
	Method string
	Width  int
}

func (c cellSpec) key() string { return fmt.Sprintf("%s/%s/w%d", c.Bench, c.Method, c.Width) }

// tableCells lists the cells in table order.
func tableCells() []cellSpec {
	var cells []cellSpec
	for _, b := range []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq} {
		for _, m := range core.Methods() {
			for _, w := range []int{4, 8} {
				cells = append(cells, cellSpec{b, m, w})
			}
		}
	}
	return cells
}

// tableInputs is everything the table-pipeline set-up generates.
type tableInputs struct {
	Class  uint64
	Seed   int64 // report/ATPG seed of the seed class
	Cells  []cellSpec
	Graphs map[string]*dfg.Graph // by bench/width
	Cfg    report.Config
}

// newTableInputs generates the inputs for a workload seed.
func newTableInputs(seed uint64, workers int) (*tableInputs, error) {
	class := seed % seedClasses
	in := &tableInputs{
		Class:  class,
		Seed:   1998 + int64(class),
		Cells:  tableCells(),
		Graphs: map[string]*dfg.Graph{},
	}
	in.Cfg = report.DefaultConfig(in.Seed)
	in.Cfg.Workers = workers
	for _, c := range in.Cells {
		k := graphKey(c.Bench, c.Width)
		if in.Graphs[k] != nil {
			continue
		}
		g, err := dfg.ByName(c.Bench, c.Width)
		if err != nil {
			return nil, err
		}
		in.Graphs[k] = g
	}
	return in, nil
}

func graphKey(bench string, width int) string { return fmt.Sprintf("%s/w%d", bench, width) }

// cellRun keeps one timed cell's artifacts for the checks that run after
// the measurement window.
type cellRun struct {
	Spec    cellSpec
	Elapsed time.Duration
	Err     error
	St      *stats.Stats
	Res     *core.Result
	NL      *rtl.Netlist
	Faults  []fault.Fault // the sampled collapsed list the campaign ran on
	ATPG    *atpg.Result
	BIST    *atpg.BISTOutcome
}

// runCell runs one cell through the whole pipeline, with a span around
// every library call.
func runCell(ctx context.Context, in *tableInputs, c cellSpec, workers int, tr *tracer, id int64) *cellRun {
	r := &cellRun{Spec: c, St: stats.New()}
	start := time.Now()
	unit := tr.start("cell", -1, id)
	defer func() {
		tr.finish(unit)
		r.Elapsed = time.Since(start)
	}()
	step := func(name string, fn func() error) bool {
		if r.Err != nil {
			return false
		}
		sp := tr.start(name, unit, id)
		err := fn()
		tr.finish(sp)
		if err != nil {
			r.Err = fmt.Errorf("%s: %s: %w", c.key(), name, err)
		}
		return err == nil
	}
	g := in.Graphs[graphKey(c.Bench, c.Width)]
	par := in.Cfg.ParamsFor(c.Width)
	par.Width = c.Width
	par.LoopSignal = loopSignal(c.Bench)
	par.Workers = workers
	par.Stats = r.St
	acfg := in.Cfg.ATPGFor(c.Width)
	acfg.SampleFaults = tableFaults
	acfg.Workers = workers
	var tpg, misr []int
	var bn *rtl.Netlist
	step("core", func() (err error) { r.Res, err = core.RunCtx(ctx, c.Method, g, par); return })
	step("rtl", func() (err error) { r.NL, err = rtl.Generate(r.Res.Design, c.Width, rtl.NormalMode); return })
	step("fault.collapse", func() error {
		r.Faults = fault.Sample(fault.Collapse(r.NL.C), acfg.SampleFaults)
		return nil
	})
	step("atpg", func() (err error) {
		if acfg.MaxFrames < 2*(r.NL.Steps+1) {
			acfg.MaxFrames = 2 * (r.NL.Steps + 1)
		}
		r.ATPG, err = atpg.RunCtx(ctx, r.NL.C, acfg)
		return
	})
	step("scan.select_bist", func() error {
		tpg, misr = scan.SelectBIST(r.Res.Design, r.Res.Metrics, tableBISTTPG, tableBISTMISR)
		return nil
	})
	step("rtl.bist", func() (err error) {
		bn, err = rtl.GenerateBIST(r.Res.Design, c.Width, rtl.NormalMode, tpg, misr)
		return
	})
	step("atpg.bist", func() (err error) {
		r.BIST, err = atpg.RunBISTCfgCtx(ctx, bn.C, tableBISTFaults, tableBISTCycles, atpg.BISTConfig{Seed: uint64(in.Seed)})
		return
	})
	return r
}

// loopSignal names the loop condition of the looping benchmarks.
func loopSignal(bench string) string {
	if bench == dfg.BenchDiffeq || bench == dfg.BenchPaulin {
		return "exit"
	}
	return ""
}

// cellDigest hashes every figure a cell reports: the table row, the
// campaign's counts and the BIST outcome.
func cellDigest(r *cellRun) string {
	a, b := r.ATPG, r.BIST
	return digest(r.Res.ExecTime, r.Res.Area.Total, r.Res.Mux.Muxes, r.Res.Mux.Inputs,
		r.Res.Design.Alloc.NumModules(), r.Res.Design.Alloc.NumRegs(), r.Res.Design.SelfLoops(),
		r.Res.Design.Alloc.String(r.Res.Design.G), r.Res.Status,
		r.NL.C.NumGates(), len(r.NL.C.DFFs), len(r.Faults),
		a.TotalFaults, a.RandomDetected, a.DetDetected, a.Untestable, a.FrameLimited, a.Aborted,
		a.Coverage, a.Effort, a.TestCycles, a.Status,
		b.TotalFaults, b.Detected, b.Passes, b.Lanes, b.Status)
}

// checkCell runs the correctness gates of one cell (outside the timed
// region) and returns the failures.
func checkCell(r *cellRun, in *tableInputs, want map[string]string, tr *tracer, id int64) []string {
	if r.Err != nil {
		return []string{r.Err.Error()}
	}
	var bad []string
	root := tr.start("check", -1, id)
	defer tr.finish(root)
	key := r.Spec.key()
	sp := tr.start("logicsim.replay", root, id)
	n, err := atpg.Replay(r.NL.C, r.ATPG.TestSet, r.Faults)
	tr.finish(sp)
	switch {
	case err != nil:
		bad = append(bad, fmt.Sprintf("%s: replay: %v", key, err))
	case n < r.ATPG.Detected():
		bad = append(bad, fmt.Sprintf("%s: replaying the test set detects %d faults, campaign claimed %d", key, n, r.ATPG.Detected()))
	}
	sp = tr.start("validate", root, id)
	if err := validate.Design(r.Res.Design); err != nil {
		bad = append(bad, fmt.Sprintf("%s: %v", key, err))
	}
	if err := validate.Netlist(r.NL); err != nil {
		bad = append(bad, fmt.Sprintf("%s: %v", key, err))
	}
	tr.finish(sp)
	sp = tr.start("interp", root, id)
	if err := checkGateLevel(r.Res.Design.G, r.NL, r.Spec.Width, uint64(in.Seed)); err != nil {
		bad = append(bad, fmt.Sprintf("%s: %v", key, err))
	}
	tr.finish(sp)
	if got := cellDigest(r); want[key] != got {
		bad = append(bad, fmt.Sprintf("%s: figures digest %s, recorded %q", key, got, want[key]))
	}
	return bad
}

// seededInputs draws n input assignments for a graph from a seed.
func seededInputs(g *dfg.Graph, width int, seed uint64, n int) []map[string]uint64 {
	s := splitmix{seed}
	var out []map[string]uint64
	for i := 0; i < n; i++ {
		in := map[string]uint64{}
		for _, v := range g.Inputs() {
			in[g.Value(v).Name] = s.next() & dfg.Mask(width)
		}
		out = append(out, in)
	}
	return out
}

// checkGateLevel compares the gate-level netlist with dfg.Interpret.
func checkGateLevel(g *dfg.Graph, nl *rtl.Netlist, width int, seed uint64) error {
	for _, in := range seededInputs(g, width, seed, tableInterpVecs) {
		want, err := g.Interpret(width, in)
		if err != nil {
			return fmt.Errorf("interpret: %w", err)
		}
		got, err := nl.SimulatePass(in)
		if err != nil {
			return fmt.Errorf("gate-level simulation: %w", err)
		}
		if err := sameOutputs(want, got); err != nil {
			return fmt.Errorf("gate level vs dfg.Interpret on %v: %w", in, err)
		}
	}
	return nil
}

// checkRTLevel compares the register-transfer design with dfg.Interpret.
func checkRTLevel(g *dfg.Graph, d *etpn.Design, width int, seed uint64, n int) error {
	for _, in := range seededInputs(g, width, seed, n) {
		want, err := g.Interpret(width, in)
		if err != nil {
			return fmt.Errorf("interpret: %w", err)
		}
		got, err := d.Simulate(width, in)
		if err != nil {
			return fmt.Errorf("design simulation: %w", err)
		}
		if err := sameOutputs(want, got); err != nil {
			return fmt.Errorf("etpn.Simulate vs dfg.Interpret on %v: %w", in, err)
		}
	}
	return nil
}

func sameOutputs(want, got map[string]uint64) error {
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("output %s missing", name)
		}
		if g != w {
			return fmt.Errorf("output %s = %d, want %d", name, g, w)
		}
	}
	return nil
}

// splitmix is a seeded splitmix64 stream.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// runTable is the table-pipeline workload.
func runTable(ctx context.Context, cfg *runConfig) (*outcome, error) {
	tr := cfg.Trace
	if tr != nil {
		tr.roots = "cell"
	}
	in, setupS, err := measureSetup(5, func() (*tableInputs, error) {
		in, err := newTableInputs(cfg.Seed, cfg.Workers)
		if err != nil {
			return nil, err
		}
		// Warm-up: one small cell through the whole pipeline, so code
		// pages and the heap are in place before timing.
		if r := runCell(ctx, in, cellSpec{dfg.BenchEx, core.MethodApproach1, 4}, cfg.Workers, nil, -1); r.Err != nil {
			return nil, r.Err
		}
		return in, nil
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("table-pipeline set-up: %w", err)
	}
	want := goldenFor("table-pipeline", fmt.Sprint(in.Class))
	out := &outcome{Metrics: map[string]float64{}, ExactScope: fmt.Sprintf("class%d", in.Class)}

	// Measurement window: cells in table order, cycling, until the window
	// has closed and every cell has run at least once. Each cell is checked
	// right after it ran, outside its timed region, and its artifacts are
	// dropped, so the heap does not grow with the run.
	window := time.Duration(cfg.Seconds) * time.Second
	lat := passTimer{}
	agg := newLayerTotals()
	m := out.Metrics
	var searched, useful float64
	rss := startRSS()
	start := time.Now()
	for i := 0; i < len(in.Cells) || time.Since(start) < window; i++ {
		c := in.Cells[i%len(in.Cells)]
		runtime.GC() // no collection debt carried into the timed cell
		r := runCell(ctx, in, c, cfg.Workers, tr, int64(i))
		out.Attempted++
		if bad := checkCell(r, in, want, tr, int64(i)); len(bad) > 0 {
			out.Problems = append(out.Problems, bad...)
			out.Failed++
		} else {
			lat.add(c.key(), r.Elapsed)
			recordCellExact(out, r)
		}
		if r.Err == nil && i < len(in.Cells) {
			// The per-layer figures cover the first pass, every cell once,
			// so their counts repeat exactly from run to run.
			agg.merge(r.St)
			a := r.ATPG
			m["gates.count"] += float64(r.NL.C.NumGates())
			m["fault.count"] += float64(len(r.Faults))
			m["atpg.effort_kge"] += float64(a.Effort)
			m["atpg.random_detected"] += float64(a.RandomDetected)
			m["atpg.podem_detected"] += float64(a.DetDetected)
			m["atpg.podem_aborted"] += float64(a.Aborted)
			m["atpg.bist_passes"] += float64(r.BIST.Passes)
			searched += float64(a.TotalFaults - a.RandomDetected)
			useful += float64(a.DetDetected + a.Untestable)
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
	self := selfTimes(tr.snapshot(), int64(len(in.Cells)))
	addCoreLayers(m, agg, self)
	m["rtl.busy_s"] = (self["rtl"] + self["rtl.bist"]).Seconds()
	m["fault.collapse_busy_s"] = self["fault.collapse"].Seconds()
	m["atpg.busy_s"] = self["atpg"].Seconds()
	m["atpg.bist_busy_s"] = self["atpg.bist"].Seconds()
	m["logicsim.replay_busy_s"] = self["logicsim.replay"].Seconds()
	m["atpg.podem_searched"] = searched
	m["atpg.podem_yield"] = ratio(useful, searched)
	tracedClosed(out, lat)
	return out, nil
}

// recordCellExact records the counts of a cell that must repeat exactly.
func recordCellExact(out *outcome, r *cellRun) {
	k := r.Spec.key() + "/"
	out.recordExact(k+"core.evaluations", r.St.Value("core.evaluations"))
	out.recordExact(k+"core.prunes", r.St.Value("core.prunes"))
	out.recordExact(k+"gates.count", int64(r.NL.C.NumGates()))
	out.recordExact(k+"fault.count", int64(len(r.Faults)))
	out.recordExact(k+"atpg.effort_kge", r.ATPG.Effort)
	out.recordExact(k+"atpg.random_detected", int64(r.ATPG.RandomDetected))
	out.recordExact(k+"atpg.podem_detected", int64(r.ATPG.DetDetected))
	out.recordExact(k+"atpg.podem_aborted", int64(r.ATPG.Aborted))
	out.recordExact(k+"atpg.bist_passes", r.BIST.Passes)
}

// coreCounters are the merger-loop counters and timers read from
// core.Params.Stats.
var (
	coreCounters = []string{"core.evaluations", "core.prunes",
		"cache.build.hit", "cache.build.miss", "cache.metrics.hit", "cache.metrics.miss",
		"cache.sched.hit", "cache.sched.miss", "cache.exec.hit", "cache.exec.miss"}
	coreTimers = []string{"time.sched", "time.floorplan", "time.testability", "time.reach"}
)

// layerTotals sums synthesis counters and timers over many units.
type layerTotals struct {
	counters map[string]int64
	timers   map[string]time.Duration
}

func newLayerTotals() *layerTotals {
	return &layerTotals{counters: map[string]int64{}, timers: map[string]time.Duration{}}
}

// merge adds one collector's merger-loop counters and timers.
func (t *layerTotals) merge(st *stats.Stats) {
	for _, c := range coreCounters {
		t.counters[c] += st.Value(c)
	}
	for _, n := range coreTimers {
		t.timers[n] += st.Duration(n)
	}
}

// addCoreLayers fills the merger-loop layer metrics from the summed
// synthesis stats and the span self times.
func addCoreLayers(m map[string]float64, t *layerTotals, self map[string]time.Duration) {
	m["core.busy_s"] = self["core"].Seconds()
	m["core.evaluations"] = float64(t.counters["core.evaluations"])
	m["core.prunes"] = float64(t.counters["core.prunes"])
	for _, c := range []string{"build", "metrics", "sched", "exec"} {
		hit := float64(t.counters["cache."+c+".hit"])
		miss := float64(t.counters["cache."+c+".miss"])
		m["core.cache."+c+".hit_ratio"] = ratio(hit, hit+miss)
		m["core.cache."+c+".lookups"] = hit + miss
	}
	m["sched.busy_s"] = t.timers["time.sched"].Seconds()
	m["cost.floorplan_busy_s"] = t.timers["time.floorplan"].Seconds()
	m["testability.busy_s"] = t.timers["time.testability"].Seconds()
	m["petri.reach_busy_s"] = t.timers["time.reach"].Seconds()
}
