// Package sched implements operation scheduling for high-level synthesis:
// ASAP/ALAP analysis, latency- and binding-constrained list scheduling, the
// force-directed scheduler of Paulin and Knight [11] (the paper's Approach
// 1 baseline), the mobility-path scheduler of Lee et al. [6,7] (Approach
// 2), and the merge-sort rescheduling transformation of paper §4.3 that
// realizes the scheduling constraints imposed by module and register
// mergers.
//
// All operations are unit-delay: an operation scheduled in control step s
// reads its operands during s and writes its result at the end of s, so a
// data-dependent operation must be scheduled at step s+1 or later.
package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/dfg"
)

// Schedule assigns each operation node a control step, 1-based.
type Schedule struct {
	Step map[dfg.NodeID]int
	Len  int // number of control steps (max assigned step)
}

// Clone returns a deep copy of the schedule.
func (s Schedule) Clone() Schedule {
	c := Schedule{Step: make(map[dfg.NodeID]int, len(s.Step)), Len: s.Len}
	for k, v := range s.Step {
		c.Step[k] = v
	}
	return c
}

// OpsAt returns the nodes scheduled at the given step, ascending by id.
func (s Schedule) OpsAt(step int) []dfg.NodeID {
	var out []dfg.NodeID
	for n, st := range s.Step {
		if st == step {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Problem is a scheduling problem: the data-flow graph, extra precedence
// arcs added by the synthesis transformations (merge-sort orders and
// lifetime-disjointness arcs), a module binding (operations bound to the
// same module must occupy distinct control steps), and an optional latency
// bound.
type Problem struct {
	G *dfg.Graph
	// Extra lists additional precedence arcs: Extra[i][0] must be scheduled
	// strictly before Extra[i][1].
	Extra [][2]dfg.NodeID
	// ExtraWeak lists same-step-permitting arcs: ExtraWeak[i][0] must be
	// scheduled no later than ExtraWeak[i][1]. They realize the
	// read-then-overwrite register sharing pattern, where a value may die
	// in the very step its successor is written.
	ExtraWeak [][2]dfg.NodeID
	// ModuleOf binds operations to modules; operations sharing a module id
	// must be scheduled in pairwise distinct steps. Unbound operations may
	// be omitted.
	ModuleOf map[dfg.NodeID]int
	// MaxLen bounds the schedule length; 0 means unbounded.
	MaxLen int

	// flow lists G's data-flow arcs, computed once by NewProblem and shared
	// read-only by clones; nil for a Problem written as a literal.
	flow [][2]dfg.NodeID
}

// NewProblem returns an unconstrained problem over g. The data-flow arcs
// of g are listed here, once, so g must not change afterwards.
func NewProblem(g *dfg.Graph) *Problem {
	return &Problem{G: g, ModuleOf: map[dfg.NodeID]int{}, flow: flowArcs(g)}
}

// Clone returns a copy of the problem sharing the graph, its data-flow
// arcs and the extra arc slices, and copying the module binding. The arc slices are
// cap-limited, so appending to either copy reallocates rather than writing
// into the other's backing array.
func (p *Problem) Clone() *Problem {
	c := &Problem{G: p.G, flow: p.flow, MaxLen: p.MaxLen, ModuleOf: make(map[dfg.NodeID]int, len(p.ModuleOf)),
		Extra: slices.Clip(p.Extra), ExtraWeak: slices.Clip(p.ExtraWeak)}
	for k, v := range p.ModuleOf {
		c.ModuleOf[k] = v
	}
	return c
}

// adjacency holds one arc relation in CSR form: the neighbours of node v
// are at[off[v] : off[v]+n[v]], in first-appearance order.
type adjacency struct{ off, n, at []int32 }

func (a *adjacency) of(v int32) []int32 { return a.at[a.off[v] : a.off[v]+a.n[v]] }

// fill sets a to the arcs of lists keyed on endpoint k (1 lists
// predecessors, 0 successors). An arc whose pair the list already holds
// is dropped, so the relation is a set of pairs.
func (a *adjacency) fill(nn, k int, lists ...[][2]dfg.NodeID) {
	a.off, a.n = resize(a.off, nn+1), resize(a.n, nn)
	for _, arcs := range lists {
		for _, e := range arcs {
			a.off[e[k]+1]++
		}
	}
	for v := 0; v < nn; v++ {
		a.off[v+1] += a.off[v]
	}
	a.at = resize(a.at, int(a.off[nn]))
	for _, arcs := range lists {
		for _, e := range arcs {
			v, x := e[k], int32(e[1-k])
			if !slices.Contains(a.of(int32(v)), x) {
				a.at[a.off[v]+a.n[v]] = x
				a.n[v]++
			}
		}
	}
}

// flowArcs lists the data-flow arcs of g, (n, s) for every s in
// g.Succs(n), ascending; keyed on either end they give dfg.Graph.Preds
// and Succs.
func flowArcs(g *dfg.Graph) [][2]dfg.NodeID {
	var arcs [][2]dfg.NodeID
	for _, n := range g.Nodes() {
		for _, s := range g.Succs(n.ID) {
			arcs = append(arcs, [2]dfg.NodeID{n.ID, s})
		}
	}
	return arcs
}

// index is the precedence structure of one solve: strict arcs (data flow
// plus Extra) and weak arcs, each deduplicated as a set of pairs, plus the
// solvers' scratch arrays. Indexes come from a pool and go back to it when
// the solve returns; nothing that aliases one escapes that call.
type index struct {
	pred, succ, wpred, wsucc    adjacency
	order, deg, queue           []int32
	asap, alap, step, mod, used []int
	bound                       []bool
	prio                        []float64
}

var indexPool = sync.Pool{New: func() any { return new(index) }}

func (p *Problem) index() *index {
	nn, flow := p.G.NumNodes(), p.flow
	if flow == nil {
		flow = flowArcs(p.G)
	}
	x := indexPool.Get().(*index)
	x.pred.fill(nn, 1, flow, p.Extra)
	x.succ.fill(nn, 0, flow, p.Extra)
	x.wpred.fill(nn, 1, p.ExtraWeak)
	x.wsucc.fill(nn, 0, p.ExtraWeak)
	return x
}

// resize returns s with length n and every element zero, reusing its
// backing array when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// indegrees sets x.deg to each node's strict plus weak predecessor count.
func (x *index) indegrees() []int32 {
	x.deg = resize(x.deg, len(x.pred.n))
	for v := range x.deg {
		x.deg[v] = x.pred.n[v] + x.wpred.n[v]
	}
	return x.deg
}

// topo sets x.order to a topological order over strict and weak arcs that
// always takes the smallest ready node id next, or fails if the arcs form
// a cycle.
func (x *index) topo() error {
	deg := x.indegrees()
	q := x.queue[:0]
	for v, d := range deg {
		if d == 0 {
			q = append(q, int32(v))
		}
	}
	x.order = x.order[:0]
	for len(q) > 0 {
		m := 0
		for i := range q {
			if q[i] < q[m] {
				m = i
			}
		}
		v := q[m]
		q[m] = q[len(q)-1]
		q = q[:len(q)-1]
		x.order = append(x.order, v)
		for _, l := range [2]*adjacency{&x.succ, &x.wsucc} {
			for _, s := range l.of(v) {
				if deg[s]--; deg[s] == 0 {
					q = append(q, s)
				}
			}
		}
	}
	x.queue = q
	if len(x.order) != len(deg) {
		return fmt.Errorf("sched: precedence arcs form a cycle")
	}
	return nil
}

// solve takes an index for p, orders it topologically and computes its
// frames; on success the caller puts the index back in indexPool.
func (p *Problem) solve(latency int, fixed map[dfg.NodeID]int) (*index, error) {
	x := p.index()
	err := x.topo()
	if err == nil {
		err = x.frames(p.G, latency, fixed)
	}
	if err != nil {
		indexPool.Put(x)
		return nil, err
	}
	return x, nil
}

// frames fills x.asap and x.alap with every node's [ASAP, ALAP] frame
// under the arcs, the latency bound and the fixed steps; math.MaxInt
// leaves the latency unbounded. x.order must be topological.
func (x *index) frames(g *dfg.Graph, latency int, fixed map[dfg.NodeID]int) error {
	nn := len(x.order)
	x.asap, x.alap = resize(x.asap, nn), resize(x.alap, nn)
	name := func(v int32) string { return g.Node(dfg.NodeID(v)).Name }
	for _, v := range x.order {
		st := 1
		for _, q := range x.pred.of(v) {
			st = max(st, x.asap[q]+1)
		}
		for _, q := range x.wpred.of(v) {
			st = max(st, x.asap[q])
		}
		if f, ok := fixed[dfg.NodeID(v)]; ok {
			if f < st {
				return fmt.Errorf("sched: fixing %s at %d violates precedence (asap %d)", name(v), f, st)
			}
			st = f
		}
		if st > latency {
			return fmt.Errorf("sched: latency %d infeasible", latency)
		}
		x.asap[v] = st
	}
	for i := nn - 1; i >= 0; i-- {
		v := x.order[i]
		st := latency
		for _, q := range x.succ.of(v) {
			st = min(st, x.alap[q]-1)
		}
		for _, q := range x.wsucc.of(v) {
			st = min(st, x.alap[q])
		}
		if f, ok := fixed[dfg.NodeID(v)]; ok {
			if f > st {
				return fmt.Errorf("sched: fixing %s at %d violates successors (alap %d)", name(v), f, st)
			}
			st = f
		}
		if st < x.asap[v] {
			return fmt.Errorf("sched: empty frame for %s", name(v))
		}
		x.alap[v] = st
	}
	return nil
}

// toSchedule copies per-node steps into a Schedule at least minLen long.
func toSchedule(steps []int, minLen int) Schedule {
	s := Schedule{Step: make(map[dfg.NodeID]int, len(steps)), Len: minLen}
	for v, st := range steps {
		s.Step[dfg.NodeID(v)] = st
		s.Len = max(s.Len, st)
	}
	return s
}

// ASAP returns the as-soon-as-possible schedule under precedence (data-flow
// plus extra arcs), ignoring module binding and latency.
func (p *Problem) ASAP() (Schedule, error) {
	x, err := p.solve(math.MaxInt, nil)
	if err != nil {
		return Schedule{}, err
	}
	defer indexPool.Put(x)
	return toSchedule(x.asap, 0), nil
}

// ALAP returns the as-late-as-possible schedule for the given latency. It
// is infeasible exactly when the ASAP schedule is longer than latency.
func (p *Problem) ALAP(latency int) (Schedule, error) {
	x, err := p.solve(latency, nil)
	if err != nil {
		return Schedule{}, err
	}
	defer indexPool.Put(x)
	return toSchedule(x.alap, latency), nil
}

// Mobility returns, for every operation, ALAP(latency) - ASAP: the
// scheduling freedom used by force-directed and mobility-path scheduling.
func (p *Problem) Mobility(latency int) (map[dfg.NodeID]int, error) {
	x, err := p.solve(latency, nil)
	if err != nil {
		return nil, err
	}
	defer indexPool.Put(x)
	m := make(map[dfg.NodeID]int, len(x.asap))
	for v, a := range x.asap {
		m[dfg.NodeID(v)] = x.alap[v] - a
	}
	return m, nil
}

// List performs priority-driven list scheduling honouring precedence, the
// module binding (one operation per module per step), and MaxLen. priority
// breaks ties among ready operations: smaller values schedule first; if
// nil, ALAP step (criticality) is used. It returns an error if MaxLen is
// exceeded or the arcs are cyclic.
func (p *Problem) List(priority map[dfg.NodeID]float64) (Schedule, error) {
	x, err := p.solve(math.MaxInt, nil)
	if err != nil {
		return Schedule{}, err
	}
	defer indexPool.Put(x)
	nn := len(x.order)
	prio := resize(x.prio, nn)
	x.prio = prio
	for v := range prio {
		prio[v] = priority[dfg.NodeID(v)]
	}
	if priority == nil {
		// Critical-path priority: earlier ALAP step first, with the ASAP
		// length as latency (always feasible).
		length := 0
		for _, st := range x.asap {
			length = max(length, st)
		}
		x.frames(p.G, length, nil)
		for v, st := range x.alap {
			prio[v] = float64(st)
		}
	}
	x.mod, x.bound = resize(x.mod, nn), resize(x.bound, nn)
	for n, m := range p.ModuleOf {
		if n >= 0 && int(n) < nn {
			x.mod[n], x.bound[n] = m, true
		}
	}
	// step[v] is 0 until v is placed; placed nodes leave ready at the end
	// of their step.
	step := resize(x.step, nn)
	x.step = step
	rem := x.indegrees()
	ready := x.order[:0] // the topological order is no longer needed
	for v, d := range rem {
		if d == 0 {
			ready = append(ready, int32(v))
		}
	}
	avail, used := x.queue[:0], x.used // used: the modules busy this step
	scheduled := 0
	for stp := 1; scheduled < nn; stp++ {
		if p.MaxLen > 0 && stp > p.MaxLen {
			return Schedule{}, fmt.Errorf("sched: latency bound %d exceeded", p.MaxLen)
		}
		// Schedule within the step until a fixpoint: weak-arc successors of
		// an operation placed this step may become placeable in the same
		// step.
		used = used[:0]
		for {
			// Ready ops whose strict predecessors finished before step and
			// whose weak predecessors are placed no later than step.
			avail = avail[:0]
		ready:
			for _, n := range ready {
				if step[n] != 0 {
					continue // chosen this step
				}
				for _, q := range x.pred.of(n) {
					if st := step[q]; st == 0 || st >= stp {
						continue ready
					}
				}
				for _, q := range x.wpred.of(n) {
					if st := step[q]; st == 0 || st > stp {
						continue ready
					}
				}
				avail = append(avail, n)
			}
			slices.SortFunc(avail, func(a, b int32) int { // (priority, id): a total order
				return cmp.Or(cmp.Compare(prio[a], prio[b]), cmp.Compare(a, b))
			})
			progress := false
			for _, n := range avail {
				if x.bound[n] {
					if slices.Contains(used, x.mod[n]) {
						continue
					}
					used = append(used, x.mod[n])
				}
				step[n] = stp
				progress = true
				scheduled++
				for _, l := range [2]*adjacency{&x.succ, &x.wsucc} {
					for _, q := range l.of(n) {
						if rem[q]--; rem[q] == 0 {
							ready = append(ready, q)
						}
					}
				}
			}
			if !progress {
				break
			}
		}
		ready = slices.DeleteFunc(ready, func(n int32) bool { return step[n] != 0 })
	}
	x.order, x.queue, x.used = ready, avail, used
	return toSchedule(step, 0), nil
}

// Verify checks that s satisfies the problem: every node scheduled, all
// precedence arcs respected with unit delay, module binding honoured, and
// latency within MaxLen.
func (p *Problem) Verify(s Schedule) error {
	x := p.index()
	defer indexPool.Put(x)
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
		for _, q := range x.pred.of(int32(n.ID)) {
			if qs := s.Step[dfg.NodeID(q)]; qs >= st {
				return fmt.Errorf("sched: node %s at step %d not after predecessor %s at step %d",
					n.Name, st, p.G.Node(dfg.NodeID(q)).Name, qs)
			}
		}
		for _, q := range x.wpred.of(int32(n.ID)) {
			if qs := s.Step[dfg.NodeID(q)]; qs > st {
				return fmt.Errorf("sched: node %s at step %d before weak predecessor %s at step %d",
					n.Name, st, p.G.Node(dfg.NodeID(q)).Name, qs)
			}
		}
	}
	atStep := map[[2]int]dfg.NodeID{} // (module, step) -> node
	for n, m := range p.ModuleOf {
		key := [2]int{m, s.Step[n]}
		if other, clash := atStep[key]; clash {
			return fmt.Errorf("sched: nodes %s and %s share module %d at step %d",
				p.G.Node(n).Name, p.G.Node(other).Name, m, s.Step[n])
		}
		atStep[key] = n
	}
	return nil
}

// String renders the schedule step by step.
func (s Schedule) String(g *dfg.Graph) string {
	var b []byte
	for step := 1; step <= s.Len; step++ {
		b = append(b, fmt.Sprintf("step %2d:", step)...)
		for _, n := range s.OpsAt(step) {
			nd := g.Node(n)
			b = append(b, fmt.Sprintf(" %s(%s)", nd.Name, nd.Kind)...)
		}
		b = append(b, '\n')
	}
	return string(b)
}
