package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/loadgen"
)

func graphHash(g *dfg.Graph) string {
	h := core.NewHasher()
	h.Graph(g)
	return h.Sum().String()
}

// Inputs and the request schedule are pure functions of the seed.
func TestInputsDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 9, 12345} {
		a, err := newTableInputs(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newTableInputs(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.Seed != b.Seed || !reflect.DeepEqual(a.Cells, b.Cells) {
			t.Fatalf("seed %d: table inputs differ", seed)
		}
		for k, g := range a.Graphs {
			if graphHash(g) != graphHash(b.Graphs[k]) {
				t.Fatalf("seed %d: graph %s differs", seed, k)
			}
		}

		sa, err := newSynthInputs(seed, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := newSynthInputs(seed, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(sa.Designs) != 1+synthGenSpecs || len(sa.Designs) != len(sb.Designs) {
			t.Fatalf("seed %d: %d and %d designs", seed, len(sa.Designs), len(sb.Designs))
		}
		for i := range sa.Designs {
			if sa.Designs[i].Name != sb.Designs[i].Name || graphHash(sa.Designs[i].Graph) != graphHash(sb.Designs[i].Graph) {
				t.Fatalf("seed %d: design %d differs", seed, i)
			}
		}

		qa, err := serveSchedule(seed, 5)
		if err != nil {
			t.Fatal(err)
		}
		qb, err := serveSchedule(seed, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(qa.Requests, qb.Requests) {
			t.Fatalf("seed %d: schedules differ", seed)
		}
		for _, r := range qa.Requests {
			if r.Class == loadgen.ProfileBatch {
				t.Fatalf("seed %d: schedule keeps a batch-deep request", seed)
			}
		}
	}
	a, _ := serveSchedule(1, 5)
	b, _ := serveSchedule(2, 5)
	if reflect.DeepEqual(a.Requests, b.Requests) {
		t.Fatal("seeds 1 and 2 give the same schedule")
	}
}

// The generated corpus stays within the sweep's contract: 24-40 ops,
// every shape, at least one loop.
func TestSynthSpecsCoverShapes(t *testing.T) {
	shapes := map[string]bool{}
	loops := 0
	for _, s := range synthSpecs() {
		if s.Ops < 24 || s.Ops > 40 {
			t.Errorf("spec with %d ops", s.Ops)
		}
		shapes[s.Shape] = true
		if s.Loop {
			loops++
		}
	}
	if len(shapes) != 4 || loops == 0 {
		t.Errorf("shapes %v, %d loop specs", shapes, loops)
	}
}

// A seed no run used while the benchmark was written runs clean on every
// workload (short windows keep the test quick).
func TestUnseenSeedRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	const seed = 987654323
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := &runConfig{Seed: seed, Seconds: 1, Workers: runtime.NumCPU(), StateDir: t.TempDir()}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			out, err := workloads[name](ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.Attempted < 1 || out.Failed != 0 || len(out.Problems) != 0 {
				t.Fatalf("attempted %d, failed %d: %v", out.Attempted, out.Failed, out.Problems)
			}
			res := render(out, false)
			for n, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s reads %v", n, m.Value)
				}
			}
		})
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Metric names and units are well formed, unique, and exactly the ones
// BENCHMARK.json declares.
func TestMetricCatalog(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !regexp.MustCompile(`^[A-Za-z0-9_.-]+$`).MatchString(m.Name) {
			t.Errorf("bad metric name %q", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("bad unit %q of %s", m.Unit, m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var bench struct {
		Command   []string
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) []metricDef {
		var out []metricDef
		for _, m := range ms {
			out = append(out, metricDef{m.Name, m.Unit})
		}
		return out
	}
	if got := declared(bench.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", got, endToEnd)
	}
	if got := declared(bench.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's catalog")
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join([]string{"table-pipeline", "synth-sweep", "serve-cluster"}, ",") {
		t.Errorf("BENCHMARK.json workloads %v", names)
	}
	for _, n := range names {
		if workloads[n] == nil {
			t.Errorf("BENCHMARK.json names workload %s the program does not have", n)
		}
	}
}

// The rendered result carries exactly the catalog of its mode.
func TestRenderCatalog(t *testing.T) {
	out := &outcome{Attempted: 1, Metrics: map[string]float64{"setup_s": 1, "stray": 2}}
	res := render(out, false)
	if len(res.Metrics) != len(endToEnd) || !res.Correct {
		t.Fatalf("untraced render: %+v", res)
	}
	if _, ok := res.Metrics["stray"]; ok {
		t.Fatal("render leaked a metric outside the catalog")
	}
	if res := render(out, true); len(res.Metrics) != len(perLayer) {
		t.Fatalf("traced render has %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	out.fail("x")
	if render(out, false).Correct {
		t.Fatal("a failed check must make the result incorrect")
	}
}

// A tampered digest makes the table and sweep gates fail.
func TestTamperedDigestFails(t *testing.T) {
	ctx := context.Background()
	in, err := newTableInputs(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := cellSpec{dfg.BenchEx, core.MethodApproach1, 4}
	r := runCell(ctx, in, c, 1, nil, 0)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	good := map[string]string{c.key(): cellDigest(r)}
	if bad := checkCell(r, in, good, nil, 0); len(bad) != 0 {
		t.Fatalf("untampered cell fails: %v", bad)
	}
	if got := goldenFor("table-pipeline", fmt.Sprint(in.Class))[c.key()]; got != good[c.key()] {
		t.Fatalf("recorded digest %q, computed %q", got, good[c.key()])
	}
	tampered := map[string]string{c.key(): "0000000000000000"}
	if bad := checkCell(r, in, tampered, nil, 0); len(bad) != 1 || !strings.Contains(bad[0], "digest") {
		t.Fatalf("tampered digest: %v", bad)
	}
	r.ATPG.Effort++ // a changed figure no longer matches the recorded digest
	if bad := checkCell(r, in, good, nil, 0); len(bad) != 1 {
		t.Fatalf("changed figure: %v", bad)
	}

	sin, err := newSynthInputs(3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dr := runDesign(ctx, sin, sin.Designs[1], nil, 0)
	if dr.Err != nil {
		t.Fatal(dr.Err)
	}
	want := goldenFor("synth-sweep", "corpus")
	if bad := checkDesign(dr, sin.Seed, want); len(bad) != 0 {
		t.Fatalf("untampered design fails: %v", bad)
	}
	if bad := checkDesign(dr, sin.Seed, map[string]string{dr.Design.Name: "tampered"}); len(bad) != 1 {
		t.Fatalf("tampered design digest: %v", bad)
	}
}

// A tampered answer body makes the serve-cluster gate fail: a repeat that
// differs, and a sampled answer that differs from the direct call.
func TestTamperedBodyFails(t *testing.T) {
	ctx := context.Background()
	sched, err := serveSchedule(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := sched.Requests[:24]
	bodies := map[string][]byte{}
	ex := make([]exchange, len(reqs))
	for i, r := range reqs {
		b, ok := bodies[r.Key()]
		if !ok {
			if b, err = directBody(ctx, r.Body); err != nil {
				t.Fatal(err)
			}
			bodies[r.Key()] = b
		}
		ex[i] = exchange{Class: loadgen.ClassOK, Body: b}
	}
	bad, unique := checkServe(ctx, reqs, ex)
	if len(bad) != 0 || unique != len(bodies) {
		t.Fatalf("clean answers: %v (unique %d, want %d)", bad, unique, len(bodies))
	}
	// Tamper with the second answer of some repeated key.
	first := map[string]int{}
	repeat := -1
	for i, r := range reqs {
		if _, ok := first[r.Key()]; ok {
			repeat = i
			break
		}
		first[r.Key()] = i
	}
	if repeat < 0 {
		t.Fatal("schedule prefix has no repeat")
	}
	ex[repeat].Body = append([]byte(nil), ex[repeat].Body...)
	ex[repeat].Body[len(ex[repeat].Body)-2] ^= 1
	if bad, _ := checkServe(ctx, reqs, ex); bad[repeat] == "" {
		t.Fatalf("tampered repeat %d not caught: %v", repeat, bad)
	}
	// Tamper with the first answer of the first key (always sampled) and
	// every copy of it, so only the direct-call comparison can notice.
	k := reqs[0].Key()
	tampered := []byte(strings.Replace(string(ex[0].Body), `"status":"complete"`, `"status":"complete" `, 1))
	for i, r := range reqs {
		if r.Key() == k {
			ex[i].Body = tampered
		}
	}
	if bad, _ := checkServe(ctx, reqs, ex); bad[0] == "" {
		t.Fatalf("tampered sampled answer not caught: %v", bad)
	}
	// An untyped answer is a failure too.
	ex[1] = exchange{Class: classify(500, nil, []byte("oops")), Body: []byte("oops")}
	if bad, _ := checkServe(ctx, reqs, ex); bad[1] == "" {
		t.Fatal("untyped answer not caught")
	}
}

// Exact counts must repeat within a run and across runs of one binary.
func TestExactCounts(t *testing.T) {
	out := &outcome{ExactScope: "t"}
	out.recordExact("a", 1)
	out.recordExact("a", 1)
	if out.Failed != 0 {
		t.Fatal("equal repeat flagged")
	}
	out.recordExact("a", 2)
	if out.Failed != 1 {
		t.Fatal("differing repeat not flagged")
	}
	dir := t.TempDir()
	if err := checkExact(dir, "w", &outcome{ExactScope: "t", Exact: map[string]int64{"a": 1}}); err != nil {
		t.Fatal(err)
	}
	if err := checkExact(dir, "w", &outcome{ExactScope: "t", Exact: map[string]int64{"a": 1, "b": 3}}); err != nil {
		t.Fatal(err)
	}
	if err := checkExact(dir, "w", &outcome{ExactScope: "t", Exact: map[string]int64{"a": 2}}); err == nil {
		t.Fatal("cross-run mismatch not reported")
	}
}

// Self time subtracts covered child time; coverage and hop linking see
// the nesting.
func TestTraceRollup(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "cell", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "core", Start: 0, End: 40 * ms, Parent: 0},
		{Name: "atpg", Start: 40 * ms, End: 97 * ms, Parent: 0},
		{Name: "cell", Start: 200 * ms, End: 300 * ms, Parent: -1},
		{Name: "core", Start: 200 * ms, End: 300 * ms, Parent: 3},
	}
	self := selfTimes(spans, math.MaxInt64)
	if self["cell"] != 3*ms || self["core"] != 140*ms || self["atpg"] != 57*ms {
		t.Fatalf("self times %v", self)
	}
	if c := minCoverage(spans, "cell"); c < 0.969 || c > 0.971 {
		t.Fatalf("coverage %v, want 0.97", c)
	}
	tr := newTracer()
	tr.add(span{Name: "client", Start: 0, End: 10 * ms, Parent: -1, Req: 7, Key: 1})
	tr.add(span{Name: "cluster", Start: 1 * ms, End: 9 * ms, Parent: -1, Key: 1})
	tr.add(span{Name: "worker", Start: 2 * ms, End: 8 * ms, Parent: -1, Key: 1})
	tr.add(span{Name: "worker", Start: 20 * ms, End: 30 * ms, Parent: -1, Key: 1}) // not nested
	tr.linkHops()
	got := tr.snapshot()
	if got[1].Parent != 0 || got[2].Parent != 1 || got[3].Parent != -1 || got[2].Req != 7 {
		t.Fatalf("links %+v", got)
	}
	if p := tr.proxySelf(); len(p) != 1 || p[0] != 2 {
		t.Fatalf("proxy self %v, want [2]", p)
	}
}
