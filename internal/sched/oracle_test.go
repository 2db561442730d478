package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dfg"
)

// The oracle below is the map-based scheduler the indexed one replaced,
// kept verbatim in behaviour: per-node predecessor and successor lists are
// rebuilt by scanning every arc on every call. It is slow and simple, and
// the differential tests hold the indexed scheduler to it schedule for
// schedule and error for error.

func oraclePreds(p *Problem, n dfg.NodeID) []dfg.NodeID {
	out := p.G.Preds(n)
	seen := map[dfg.NodeID]bool{}
	for _, x := range out {
		seen[x] = true
	}
	for _, e := range p.Extra {
		if e[1] == n && !seen[e[0]] {
			seen[e[0]] = true
			out = append(out, e[0])
		}
	}
	return out
}

func oracleSuccs(p *Problem, n dfg.NodeID) []dfg.NodeID {
	out := p.G.Succs(n)
	seen := map[dfg.NodeID]bool{}
	for _, x := range out {
		seen[x] = true
	}
	for _, e := range p.Extra {
		if e[0] == n && !seen[e[1]] {
			seen[e[1]] = true
			out = append(out, e[1])
		}
	}
	return out
}

func oracleWeakPreds(p *Problem, n dfg.NodeID) []dfg.NodeID {
	seen := map[dfg.NodeID]bool{}
	var out []dfg.NodeID
	for _, e := range p.ExtraWeak {
		if e[1] == n && !seen[e[0]] {
			seen[e[0]] = true
			out = append(out, e[0])
		}
	}
	return out
}

func oracleWeakSuccs(p *Problem, n dfg.NodeID) []dfg.NodeID {
	seen := map[dfg.NodeID]bool{}
	var out []dfg.NodeID
	for _, e := range p.ExtraWeak {
		if e[0] == n && !seen[e[1]] {
			seen[e[1]] = true
			out = append(out, e[1])
		}
	}
	return out
}

func oracleTopo(p *Problem) ([]dfg.NodeID, error) {
	nn := p.G.NumNodes()
	indeg := make([]int, nn)
	for i := 0; i < nn; i++ {
		indeg[i] = len(oraclePreds(p, dfg.NodeID(i))) + len(oracleWeakPreds(p, dfg.NodeID(i)))
	}
	var queue []dfg.NodeID
	for i := 0; i < nn; i++ {
		if indeg[i] == 0 {
			queue = append(queue, dfg.NodeID(i))
		}
	}
	var order []dfg.NodeID
	for len(queue) > 0 {
		sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, s := range oracleSuccs(p, n) {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
		for _, s := range oracleWeakSuccs(p, n) {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != nn {
		return nil, fmt.Errorf("sched: precedence arcs form a cycle")
	}
	return order, nil
}

func oracleASAP(p *Problem) (Schedule, error) {
	order, err := oracleTopo(p)
	if err != nil {
		return Schedule{}, err
	}
	s := Schedule{Step: map[dfg.NodeID]int{}}
	for _, n := range order {
		step := 1
		for _, q := range oraclePreds(p, n) {
			if s.Step[q]+1 > step {
				step = s.Step[q] + 1
			}
		}
		for _, q := range oracleWeakPreds(p, n) {
			if s.Step[q] > step {
				step = s.Step[q]
			}
		}
		s.Step[n] = step
		if step > s.Len {
			s.Len = step
		}
	}
	return s, nil
}

func oracleALAP(p *Problem, latency int) (Schedule, error) {
	order, err := oracleTopo(p)
	if err != nil {
		return Schedule{}, err
	}
	s := Schedule{Step: map[dfg.NodeID]int{}, Len: latency}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		step := latency
		for _, q := range oracleSuccs(p, n) {
			if s.Step[q]-1 < step {
				step = s.Step[q] - 1
			}
		}
		for _, q := range oracleWeakSuccs(p, n) {
			if s.Step[q] < step {
				step = s.Step[q]
			}
		}
		if step < 1 {
			return Schedule{}, fmt.Errorf("sched: latency %d infeasible", latency)
		}
		s.Step[n] = step
	}
	return s, nil
}

func oracleList(p *Problem, priority map[dfg.NodeID]float64) (Schedule, error) {
	if _, err := oracleTopo(p); err != nil {
		return Schedule{}, err
	}
	if priority == nil {
		asap, err := oracleASAP(p)
		if err != nil {
			return Schedule{}, err
		}
		alap, err := oracleALAP(p, asap.Len)
		if err != nil {
			return Schedule{}, err
		}
		priority = make(map[dfg.NodeID]float64, len(alap.Step))
		for n, st := range alap.Step {
			priority[n] = float64(st)
		}
	}
	s := Schedule{Step: map[dfg.NodeID]int{}}
	nn := p.G.NumNodes()
	remainingPreds := make([]int, nn)
	for i := 0; i < nn; i++ {
		remainingPreds[i] = len(oraclePreds(p, dfg.NodeID(i))) + len(oracleWeakPreds(p, dfg.NodeID(i)))
	}
	var ready []dfg.NodeID
	for i := 0; i < nn; i++ {
		if remainingPreds[i] == 0 {
			ready = append(ready, dfg.NodeID(i))
		}
	}
	scheduled := 0
	for step := 1; scheduled < nn; step++ {
		if p.MaxLen > 0 && step > p.MaxLen {
			return Schedule{}, fmt.Errorf("sched: latency bound %d exceeded", p.MaxLen)
		}
		usedModule := map[int]bool{}
		chosen := map[dfg.NodeID]bool{}
		var stillReady []dfg.NodeID
		for {
			var avail []dfg.NodeID
			for _, n := range ready {
				if chosen[n] {
					continue
				}
				ok := true
				for _, q := range oraclePreds(p, n) {
					if st, done := s.Step[q]; !done || st >= step {
						ok = false
						break
					}
				}
				for _, q := range oracleWeakPreds(p, n) {
					if st, done := s.Step[q]; !done || st > step {
						ok = false
						break
					}
				}
				if ok {
					avail = append(avail, n)
				}
			}
			sort.Slice(avail, func(i, j int) bool {
				pi, pj := priority[avail[i]], priority[avail[j]]
				if pi != pj {
					return pi < pj
				}
				return avail[i] < avail[j]
			})
			progress := false
			for _, n := range avail {
				if m, bound := p.ModuleOf[n]; bound {
					if usedModule[m] {
						continue
					}
					usedModule[m] = true
				}
				s.Step[n] = step
				if step > s.Len {
					s.Len = step
				}
				chosen[n] = true
				progress = true
				scheduled++
				for _, q := range oracleSuccs(p, n) {
					remainingPreds[q]--
					if remainingPreds[q] == 0 {
						stillReady = append(stillReady, q)
					}
				}
				for _, q := range oracleWeakSuccs(p, n) {
					remainingPreds[q]--
					if remainingPreds[q] == 0 {
						stillReady = append(stillReady, q)
					}
				}
			}
			ready = append(ready, stillReady...)
			stillReady = nil
			if !progress {
				break
			}
		}
		var nextReady []dfg.NodeID
		for _, n := range ready {
			if !chosen[n] {
				nextReady = append(nextReady, n)
			}
		}
		ready = nextReady
	}
	return s, nil
}

func oracleFrames(p *Problem, latency int, fixed map[dfg.NodeID]int) (asap, alap map[dfg.NodeID]int, err error) {
	order, err := oracleTopo(p)
	if err != nil {
		return nil, nil, err
	}
	asap = make(map[dfg.NodeID]int, len(order))
	for _, n := range order {
		st := 1
		for _, q := range oraclePreds(p, n) {
			if asap[q]+1 > st {
				st = asap[q] + 1
			}
		}
		for _, q := range oracleWeakPreds(p, n) {
			if asap[q] > st {
				st = asap[q]
			}
		}
		if f, ok := fixed[n]; ok {
			if f < st {
				return nil, nil, fmt.Errorf("sched: fixing %s at %d violates precedence (asap %d)", p.G.Node(n).Name, f, st)
			}
			st = f
		}
		if st > latency {
			return nil, nil, fmt.Errorf("sched: latency %d infeasible", latency)
		}
		asap[n] = st
	}
	alap = make(map[dfg.NodeID]int, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		st := latency
		for _, q := range oracleSuccs(p, n) {
			if alap[q]-1 < st {
				st = alap[q] - 1
			}
		}
		for _, q := range oracleWeakSuccs(p, n) {
			if alap[q] < st {
				st = alap[q]
			}
		}
		if f, ok := fixed[n]; ok {
			if f > st {
				return nil, nil, fmt.Errorf("sched: fixing %s at %d violates successors (alap %d)", p.G.Node(n).Name, f, st)
			}
			st = f
		}
		if st < asap[n] {
			return nil, nil, fmt.Errorf("sched: empty frame for %s", p.G.Node(n).Name)
		}
		alap[n] = st
	}
	return asap, alap, nil
}

func oracleVerify(p *Problem, s Schedule) error {
	for _, n := range p.G.Nodes() {
		st, ok := s.Step[n.ID]
		if !ok {
			return fmt.Errorf("sched: node %s unscheduled", n.Name)
		}
		if st < 1 {
			return fmt.Errorf("sched: node %s at invalid step %d", n.Name, st)
		}
		if p.MaxLen > 0 && st > p.MaxLen {
			return fmt.Errorf("sched: node %s at step %d exceeds latency %d", n.Name, st, p.MaxLen)
		}
		for _, q := range oraclePreds(p, n.ID) {
			if s.Step[q] >= st {
				return fmt.Errorf("sched: node %s at step %d not after predecessor %s at step %d",
					n.Name, st, p.G.Node(q).Name, s.Step[q])
			}
		}
		for _, q := range oracleWeakPreds(p, n.ID) {
			if s.Step[q] > st {
				return fmt.Errorf("sched: node %s at step %d before weak predecessor %s at step %d",
					n.Name, st, p.G.Node(q).Name, s.Step[q])
			}
		}
	}
	// The module check of the original ranges over the binding map, so
	// which of two clashing nodes it names depends on map order; only
	// whether a clash exists is compared.
	atStep := map[[2]int]bool{}
	for n, m := range p.ModuleOf {
		key := [2]int{m, s.Step[n]}
		if atStep[key] {
			return fmt.Errorf("sched: module clash")
		}
		atStep[key] = true
	}
	return nil
}

// randProblem builds a scheduling problem over a random graph with the
// arc patterns the merger loop produces and the corner cases the indexed
// scheduler must deduplicate exactly like the original: duplicate extra
// arcs, extra arcs repeating a data-flow edge, a strong and a weak arc on
// the same pair, random module bindings, MaxLen bounds that may be too
// tight, and the occasional backward (possibly cycle-closing) arc.
func randProblem(rng *rand.Rand) *Problem {
	g := randGraph(rng, 2+rng.Intn(24))
	nn := g.NumNodes()
	p := NewProblem(g)
	node := func() dfg.NodeID { return dfg.NodeID(rng.Intn(nn)) }
	forward := func() [2]dfg.NodeID {
		a, b := node(), node()
		if a > b {
			a, b = b, a
		}
		if a == b && b+1 < dfg.NodeID(nn) {
			b++
		}
		return [2]dfg.NodeID{a, b}
	}
	for k := rng.Intn(3 * nn); k > 0; k-- {
		switch r := rng.Intn(20); {
		case r < 9:
			if e := forward(); e[0] != e[1] {
				p.Extra = append(p.Extra, e)
			}
		case r < 11 && len(p.Extra) > 0:
			p.Extra = append(p.Extra, p.Extra[rng.Intn(len(p.Extra))]) // duplicate
		case r < 13:
			n := node()
			if ss := g.Succs(n); len(ss) > 0 {
				p.Extra = append(p.Extra, [2]dfg.NodeID{n, ss[rng.Intn(len(ss))]}) // repeats data flow
			}
		case r < 16:
			p.ExtraWeak = append(p.ExtraWeak, forward())
		case r < 17 && len(p.ExtraWeak) > 0:
			p.ExtraWeak = append(p.ExtraWeak, p.ExtraWeak[rng.Intn(len(p.ExtraWeak))])
		case r < 18:
			if e := forward(); e[0] != e[1] {
				p.Extra = append(p.Extra, e)
				p.ExtraWeak = append(p.ExtraWeak, e) // strong and weak on one pair
			}
		case r < 19 && rng.Intn(4) == 0:
			e := forward()
			p.Extra = append(p.Extra, [2]dfg.NodeID{e[1], e[0]}) // backward: may close a cycle
		default:
			p.ExtraWeak = append(p.ExtraWeak, [2]dfg.NodeID{node(), node()})
		}
	}
	for _, n := range g.Nodes() {
		if rng.Intn(3) > 0 {
			p.ModuleOf[n.ID] = int(n.Kind)*3 + rng.Intn(3)
		}
	}
	if rng.Intn(3) > 0 {
		if s, err := oracleASAP(p); err == nil {
			p.MaxLen = s.Len + rng.Intn(5) - 1
			if p.MaxLen < 1 {
				p.MaxLen = 1
			}
		}
	}
	return p
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func sameSchedule(a, b Schedule) bool {
	return a.Len == b.Len && reflect.DeepEqual(a.Step, b.Step)
}

func TestIndexedSchedulerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	errs, okLists := 0, 0
	for iter := 0; iter < 600; iter++ {
		p := randProblem(rng)
		want, werr := oracleList(p, nil)
		got, gerr := p.List(nil)
		if errText(werr) != errText(gerr) || (werr == nil && !sameSchedule(want, got)) {
			t.Fatalf("iter %d List: got (%v, %v), oracle (%v, %v)\nExtra %v\nWeak %v", iter, got, gerr, want, werr, p.Extra, p.ExtraWeak)
		}
		if werr != nil {
			errs++
		} else {
			okLists++
			if e1, e2 := oracleVerify(p, got), p.Verify(got); (e1 == nil) != (e2 == nil) {
				t.Fatalf("iter %d Verify: %v vs oracle %v", iter, e2, e1)
			}
		}
		// A caller-supplied priority takes the same path.
		prio := map[dfg.NodeID]float64{}
		for _, n := range p.G.Nodes() {
			if rng.Intn(4) > 0 {
				prio[n.ID] = float64(rng.Intn(4)) / 2
			}
		}
		want, werr = oracleList(p, prio)
		got, gerr = p.List(prio)
		if errText(werr) != errText(gerr) || (werr == nil && !sameSchedule(want, got)) {
			t.Fatalf("iter %d List(prio): got (%v, %v), oracle (%v, %v)", iter, got, gerr, want, werr)
		}

		wa, werr := oracleASAP(p)
		ga, gerr := p.ASAP()
		if errText(werr) != errText(gerr) || (werr == nil && !sameSchedule(wa, ga)) {
			t.Fatalf("iter %d ASAP: got (%v, %v), oracle (%v, %v)", iter, ga, gerr, wa, werr)
		}
		for _, lat := range []int{wa.Len - 1, wa.Len, wa.Len + 2} {
			wl, werr := oracleALAP(p, lat)
			gl, gerr := p.ALAP(lat)
			if errText(werr) != errText(gerr) || (werr == nil && !sameSchedule(wl, gl)) {
				t.Fatalf("iter %d ALAP(%d): got (%v, %v), oracle (%v, %v)", iter, lat, gl, gerr, wl, werr)
			}
			fixed := map[dfg.NodeID]int{}
			for k := rng.Intn(3); k > 0; k-- {
				fixed[dfg.NodeID(rng.Intn(p.G.NumNodes()))] = 1 + rng.Intn(max(lat, 0)+1)
			}
			woA, woL, werr := oracleFrames(p, lat, fixed)
			gA, gL, gerr := p.framesWithFixed(lat, fixed)
			if errText(werr) != errText(gerr) {
				t.Fatalf("iter %d frames(%d, %v): err %v, oracle %v", iter, lat, fixed, gerr, werr)
			}
			if werr == nil {
				for n := range woA {
					if gA[n] != woA[n] || gL[n] != woL[n] {
						t.Fatalf("iter %d frames(%d): node %d got [%d,%d], oracle [%d,%d]", iter, lat, n, gA[n], gL[n], woA[n], woL[n])
					}
				}
			}
		}
		// Verify on perturbed schedules must fail exactly when the
		// oracle's does.
		if werr == nil {
			bad := wa.Clone()
			n := dfg.NodeID(rng.Intn(p.G.NumNodes()))
			bad.Step[n] = rng.Intn(wa.Len + 2)
			if rng.Intn(5) == 0 {
				delete(bad.Step, n)
			}
			e1, e2 := oracleVerify(p, bad), p.Verify(bad)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("iter %d Verify(perturbed): %v vs oracle %v", iter, e2, e1)
			}
			if e1 != nil && e1.Error() != "sched: module clash" && e1.Error() != e2.Error() {
				t.Fatalf("iter %d Verify(perturbed): %q vs oracle %q", iter, e2, e1)
			}
		}
	}
	// The generator must exercise both outcomes.
	if errs == 0 || okLists == 0 {
		t.Fatalf("degenerate corpus: %d errors, %d schedules", errs, okLists)
	}
}

// A Problem written as a literal, not built by NewProblem, carries no
// precomputed data-flow adjacency; it must still schedule, and exactly as
// the oracle does.
func TestLiteralProblemSchedules(t *testing.T) {
	g := dfg.Diffeq(8)
	n26, _ := g.NodeByName("N26")
	n27, _ := g.NodeByName("N27")
	p := &Problem{G: g, Extra: [][2]dfg.NodeID{{n26, n27}}}
	got, err := p.List(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := oracleList(p, nil)
	if !sameSchedule(got, want) {
		t.Fatalf("literal problem: got %v, oracle %v", got, want)
	}
	if err := p.Verify(got); err != nil {
		t.Fatal(err)
	}
	if got.Step[n27] <= got.Step[n26] {
		t.Errorf("extra arc ignored: N26@%d N27@%d", got.Step[n26], got.Step[n27])
	}
}

// Clone shares the arc slices cap-limited, so appending to a clone never
// writes into the original's backing array, and vice versa.
func TestCloneAppendsDoNotAlias(t *testing.T) {
	g := dfg.Ex(8)
	p := NewProblem(g)
	p.Extra = make([][2]dfg.NodeID, 1, 8)
	p.Extra[0] = [2]dfg.NodeID{0, 4}
	p.ExtraWeak = make([][2]dfg.NodeID, 0, 8)
	c := p.Clone()
	c.Extra = append(c.Extra, [2]dfg.NodeID{1, 5})
	c.ExtraWeak = append(c.ExtraWeak, [2]dfg.NodeID{2, 3})
	p.Extra = append(p.Extra, [2]dfg.NodeID{2, 6})
	p.ExtraWeak = append(p.ExtraWeak, [2]dfg.NodeID{3, 2})
	if c.Extra[1] != [2]dfg.NodeID{1, 5} || c.ExtraWeak[0] != [2]dfg.NodeID{2, 3} {
		t.Fatalf("clone arcs overwritten through a shared backing array: %v %v", c.Extra, c.ExtraWeak)
	}
	if p.Extra[1] != [2]dfg.NodeID{2, 6} || p.ExtraWeak[0] != [2]dfg.NodeID{3, 2} {
		t.Fatalf("original arcs overwritten: %v %v", p.Extra, p.ExtraWeak)
	}
}
