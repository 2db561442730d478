package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dfg"
)

// ClassFunc maps operation kinds to module classes for the purpose of
// resource sharing and distribution graphs: operations in the same class
// compete for the same kind of functional unit.
type ClassFunc func(dfg.OpKind) string

// ExactClass shares modules only between identical operation kinds — the
// binding discipline visible in the paper's Tables 1-3 for Approaches 1, 2
// and Ours (multipliers hold only multiplications, subtracters only
// subtractions, and so on).
func ExactClass(k dfg.OpKind) string { return k.String() }

// ALUClass pools addition, subtraction and comparison into one
// adder/subtracter ALU class, as the CAMAD rows of the tables do (their
// "±" modules), while multiplications keep a dedicated class.
func ALUClass(k dfg.OpKind) string {
	switch k {
	case dfg.OpAdd, dfg.OpSub, dfg.OpLt, dfg.OpGt, dfg.OpEq:
		return "±"
	case dfg.OpMul:
		return "*"
	default:
		return "logic"
	}
}

// framesWithFixed computes [ASAP, ALAP] frames, indexed by node id, under
// the problem's precedence arcs, a latency bound, and a set of
// already-fixed assignments.
func (p *Problem) framesWithFixed(latency int, fixed map[dfg.NodeID]int) (asap, alap []int, err error) {
	x, err := p.solve(latency, fixed)
	if err != nil {
		return nil, nil, err
	}
	defer indexPool.Put(x)
	return slices.Clone(x.asap), slices.Clone(x.alap), nil
}

// distributionCost computes the force-directed balancing objective: the sum
// over module classes and control steps of the squared distribution-graph
// value, where each unfixed operation spreads probability 1/|frame| over
// its frame. Lower is a flatter, more shareable schedule.
func (p *Problem) distributionCost(latency int, class ClassFunc, asap, alap []int) float64 {
	dg := map[string][]float64{}
	for _, n := range p.G.Nodes() {
		c := class(n.Kind)
		row := dg[c]
		if row == nil {
			row = make([]float64, latency+1)
			dg[c] = row
		}
		lo, hi := asap[n.ID], alap[n.ID]
		pr := 1.0 / float64(hi-lo+1)
		for s := lo; s <= hi; s++ {
			row[s] += pr
		}
	}
	// Sum classes in sorted order: float addition is not associative, so
	// iterating the map directly would let Go's randomized map order
	// perturb the cost in its last ulp and flip near-tie comparisons in
	// FDS from run to run.
	classes := make([]string, 0, len(dg))
	for c := range dg {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	cost := 0.0
	for _, c := range classes {
		for _, v := range dg[c] {
			cost += v * v
		}
	}
	return cost
}

// FDS is the force-directed scheduler of Paulin and Knight [11], in the
// equivalent sum-of-squares balancing formulation: repeatedly commit the
// (operation, step) assignment that minimizes the global distribution-graph
// cost, recomputing every operation's time frame after each commitment.
// The schedule meets the given latency exactly or an error is returned.
func (p *Problem) FDS(latency int, class ClassFunc) (Schedule, error) {
	if class == nil {
		class = ExactClass
	}
	fixed := map[dfg.NodeID]int{}
	for len(fixed) < p.G.NumNodes() {
		before := len(fixed)
		asap, alap, err := p.framesWithFixed(latency, fixed)
		if err != nil {
			return Schedule{}, err
		}
		// Commit every zero-mobility operation outright: its placement is
		// forced and carries no force of its own.
		for _, n := range p.G.Nodes() {
			if _, done := fixed[n.ID]; !done && asap[n.ID] == alap[n.ID] {
				fixed[n.ID] = asap[n.ID]
			}
		}
		if len(fixed) == p.G.NumNodes() {
			break
		}
		if len(fixed) != before {
			continue // frames changed; recompute before evaluating forces
		}
		bestCost := 0.0
		bestNode := dfg.NoNode
		bestStep := 0
		first := true
		for _, n := range p.G.Nodes() {
			if _, done := fixed[n.ID]; done {
				continue
			}
			for s := asap[n.ID]; s <= alap[n.ID]; s++ {
				fixed[n.ID] = s
				a2, l2, err := p.framesWithFixed(latency, fixed)
				delete(fixed, n.ID)
				if err != nil {
					continue
				}
				c := p.distributionCost(latency, class, a2, l2)
				if first || c < bestCost {
					first = false
					bestCost = c
					bestNode = n.ID
					bestStep = s
				}
			}
		}
		if bestNode == dfg.NoNode {
			return Schedule{}, fmt.Errorf("sched: FDS made no progress")
		}
		fixed[bestNode] = bestStep
	}
	return p.verified(fixed)
}

// MobilityPath is the testability-oriented scheduler of Lee et al. [6,7]
// (the paper's Approach 2), reconstructed from its two published rules:
// operations are processed along mobility paths (least-mobile, most
// critical first) and placed at the step in their current frame that best
// balances per-class concurrency, with ties broken to execute operations
// reading primary-input variables as early as possible and operations
// producing primary-output variables as late as possible — shortening the
// sequential depth from controllable to observable registers (rule SR1).
func (p *Problem) MobilityPath(latency int, class ClassFunc) (Schedule, error) {
	if class == nil {
		class = ExactClass
	}
	asap0, alap0, err := p.framesWithFixed(latency, nil)
	if err != nil {
		return Schedule{}, err
	}
	nodes := slices.Clone(p.G.Nodes())
	slices.SortFunc(nodes, func(a, b *dfg.Node) int { // (mobility, asap, id)
		return cmp.Or(cmp.Compare(alap0[a.ID]-asap0[a.ID], alap0[b.ID]-asap0[b.ID]),
			cmp.Compare(asap0[a.ID], asap0[b.ID]), cmp.Compare(a.ID, b.ID))
	})
	fixed := map[dfg.NodeID]int{}
	usage := map[string][]int{} // class -> per-step committed count
	for _, n := range nodes {
		asap, alap, err := p.framesWithFixed(latency, fixed)
		if err != nil {
			return Schedule{}, err
		}
		c := class(n.Kind)
		row := usage[c]
		if row == nil {
			row = make([]int, latency+1)
			usage[c] = row
		}
		readsPI := slices.ContainsFunc(n.In, func(v dfg.ValueID) bool { return p.G.Value(v).Kind == dfg.ValInput })
		writesPO := p.G.Value(n.Out).IsOutput
		bestStep, bestKey := 0, [3]int{1 << 30, 0, 0}
		for s := asap[n.ID]; s <= alap[n.ID]; s++ {
			// Primary criterion: per-class concurrency at s. Secondary:
			// PI-readers early, PO-writers late, others early.
			dir := s
			if writesPO && !readsPI {
				dir = -s
			}
			key := [3]int{row[s], dir, int(n.ID)}
			if s == asap[n.ID] || key[0] < bestKey[0] || (key[0] == bestKey[0] && key[1] < bestKey[1]) {
				bestStep, bestKey = s, key
			}
		}
		fixed[n.ID] = bestStep
		row[bestStep]++
	}
	return p.verified(fixed)
}

// verified returns the schedule of the fixed steps if it satisfies p.
func (p *Problem) verified(fixed map[dfg.NodeID]int) (Schedule, error) {
	s := Schedule{Step: fixed}
	for _, st := range fixed {
		s.Len = max(s.Len, st)
	}
	if err := p.Verify(s); err != nil {
		return Schedule{}, err
	}
	return s, nil
}
