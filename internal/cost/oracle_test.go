package cost_test

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/etpn"
)

// oracleFloorplan is the map-based floorplan the slice-indexed one
// replaced: neighbour weights in a map of maps, positions and occupied
// slots in maps.
func oracleFloorplan(d *etpn.Design) map[int][2]int {
	n := len(d.Nodes)
	adj := make(map[int]map[int]int, n)
	bump := func(a, b int) {
		if adj[a] == nil {
			adj[a] = map[int]int{}
		}
		adj[a][b]++
	}
	for _, a := range d.Arcs {
		if a.From == a.To {
			continue
		}
		bump(a.From, a.To)
		bump(a.To, a.From)
	}
	order := make([]int, 0, n)
	for _, nd := range d.Nodes {
		order = append(order, nd.ID)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := len(adj[order[i]]), len(adj[order[j]])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	pos := make(map[int][2]int, n)
	used := map[[2]int]bool{}
	side := int(math.Ceil(math.Sqrt(float64(n)))) + 2
	for _, id := range order {
		best := [2]int{0, 0}
		bestCost := math.Inf(1)
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				p := [2]int{x, y}
				if used[p] {
					continue
				}
				c := 0.0
				for nb, w := range adj[id] {
					if q, placed := pos[nb]; placed {
						c += float64(w) * float64(iabs(p[0]-q[0])+iabs(p[1]-q[1]))
					}
				}
				c += 1e-6 * float64(p[0]+p[1]*side)
				if c < bestCost {
					bestCost = c
					best = p
				}
			}
		}
		pos[id] = best
		used[best] = true
	}
	return pos
}

// oracleEstimate is EstimateDesign as it was, counting mux sources in a
// map of sets and wiring from oracleFloorplan.
func oracleEstimate(d *etpn.Design, lib *cost.Library, width int) cost.Estimate {
	var e cost.Estimate
	for _, nd := range d.Nodes {
		switch nd.Kind {
		case etpn.KindModule:
			e.ModuleArea += lib.ModuleArea(nd.Class, width)
		case etpn.KindRegister:
			e.RegArea += lib.RegisterArea(width)
		}
	}
	type dest struct{ node, port int }
	srcs := map[dest]map[int]bool{}
	for _, a := range d.Arcs {
		to := d.Nodes[a.To]
		if to.Kind != etpn.KindModule && to.Kind != etpn.KindRegister {
			continue
		}
		k := dest{a.To, a.ToPort}
		if srcs[k] == nil {
			srcs[k] = map[int]bool{}
		}
		srcs[k][a.From] = true
	}
	for _, set := range srcs {
		e.MuxArea += lib.MuxArea(width, len(set))
	}
	nComp := 0
	compArea := e.ModuleArea + e.RegArea + e.MuxArea
	for _, nd := range d.Nodes {
		if nd.Kind == etpn.KindModule || nd.Kind == etpn.KindRegister {
			nComp++
		}
	}
	pitch := 1.0
	if nComp > 0 {
		pitch = math.Sqrt(compArea / float64(nComp))
	}
	pos := oracleFloorplan(d)
	for _, a := range d.Arcs {
		p, q := pos[a.From], pos[a.To]
		dist := float64(iabs(p[0]-q[0]) + iabs(p[1]-q[1]))
		e.WireArea += dist * pitch * float64(width) * lib.WireWeight
	}
	e.Total = e.ModuleArea + e.RegArea + e.MuxArea + e.WireArea
	return e
}

func iabs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// flowDesigns returns the final design of every synthesis flow on the
// table benchmarks and on a slice of generated behaviours.
func flowDesigns(t *testing.T) map[string]*etpn.Design {
	t.Helper()
	out := map[string]*etpn.Design{}
	names := []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq, dfg.BenchEWF,
		"gen:s7-o24-mmixed-hmesh-f2-i4-c2", "gen:s1-o16-mdiffeq-hdeep-f3-i4-c2-loop",
		"gen:s3-o20-marith-hdiamond-f2-i4-c2"}
	for _, name := range names {
		g, err := dfg.ByName(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		par := core.DefaultParams(8)
		par.LoopSignal = dfggen.LoopSignal(name)
		if name == dfg.BenchDiffeq {
			par.LoopSignal = "exit"
		}
		for _, method := range core.Methods() {
			r, err := core.Run(method, g, par)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, method, err)
			}
			out[name+"/"+method] = r.Design
		}
	}
	return out
}

func TestFloorplanMatchesOracle(t *testing.T) {
	for key, d := range flowDesigns(t) {
		if got, want := cost.Floorplan(d), oracleFloorplan(d); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: floorplan positions differ:\n got %v\nwant %v", key, got, want)
		}
		lib := cost.DefaultLibrary()
		if got, want := cost.EstimateDesign(d, lib, 8), oracleEstimate(d, lib, 8); got != want {
			t.Errorf("%s: estimate %+v, oracle %+v", key, got, want)
		}
	}
}
