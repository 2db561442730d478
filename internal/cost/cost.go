// Package cost estimates the hardware cost H of an ETPN data path (paper
// §4.2): H = Σ Area(V_i) + Σ Len(A_j) × Wid(A_j), where module and register
// areas come from a module library parameterized by bit width, connection
// lengths come from a simple connectivity-driven floorplan in the manner of
// Peng & Kuchcinski [14], and connection widths are the bit width times a
// weight factor. Multiplexers implied by the allocation are charged to
// their destination nodes.
//
// Areas are in normalized units; the library preserves the relative cost
// structure of the paper's experiments (multiplier ≫ ALU ≈ adder >
// register > mux, multiplier quadratic in width).
package cost

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/etpn"
)

// Library supplies per-component area models.
type Library struct {
	// RegPerBit is the register area per bit.
	RegPerBit float64
	// AddPerBit is the adder/subtracter/ALU area per bit.
	AddPerBit float64
	// CmpPerBit is the comparator area per bit.
	CmpPerBit float64
	// LogicPerBit is the bitwise-logic unit area per bit.
	LogicPerBit float64
	// MulPerBit2 is the array-multiplier area per bit squared.
	MulPerBit2 float64
	// MuxPerBitInput is the multiplexer area per bit per extra input.
	MuxPerBitInput float64
	// WireWeight scales connection width (paper: bit width times a given
	// weighted factor).
	WireWeight float64
}

// DefaultLibrary returns the library used across the reproduction.
func DefaultLibrary() *Library {
	return &Library{
		RegPerBit:      8,
		AddPerBit:      24,
		CmpPerBit:      12,
		LogicPerBit:    8,
		MulPerBit2:     20,
		MuxPerBitInput: 4,
		WireWeight:     0.05,
	}
}

// ModuleArea returns the area of a functional module of the given class at
// the given bit width.
func (l *Library) ModuleArea(class string, width int) float64 {
	w := float64(width)
	switch class {
	case "*":
		return l.MulPerBit2 * w * w
	case "+", "-", "±":
		return l.AddPerBit * w
	case "<", ">", "==":
		return l.CmpPerBit * w
	case "&", "|", "^", "~", "mov", "logic":
		return l.LogicPerBit * w
	default:
		return l.AddPerBit * w
	}
}

// RegisterArea returns the area of a width-bit register.
func (l *Library) RegisterArea(width int) float64 { return l.RegPerBit * float64(width) }

// MuxArea returns the area of an inputs-to-1 multiplexer at the given
// width; 0 or 1 inputs need no hardware.
func (l *Library) MuxArea(width, inputs int) float64 {
	if inputs <= 1 {
		return 0
	}
	return l.MuxPerBitInput * float64(width) * float64(inputs-1)
}

// Estimate is the cost breakdown of a design.
type Estimate struct {
	ModuleArea float64
	RegArea    float64
	MuxArea    float64
	WireArea   float64
	Total      float64
}

// String renders the estimate.
func (e Estimate) String() string {
	return fmt.Sprintf("total %.0f (modules %.0f, regs %.0f, muxes %.0f, wires %.0f)",
		e.Total, e.ModuleArea, e.RegArea, e.MuxArea, e.WireArea)
}

// Floorplan places the data-path nodes of d on an integer grid with a
// connectivity-driven greedy heuristic: nodes in decreasing connectivity
// order, each placed on the free grid slot minimizing the total Manhattan
// distance to its already-placed neighbours. Positions are deterministic.
func Floorplan(d *etpn.Design) map[int][2]int {
	px, py := floorplan(d)
	pos := make(map[int][2]int, len(px))
	for id := range px {
		pos[id] = [2]int{px[id], py[id]}
	}
	return pos
}

// floorplan is Floorplan with positions indexed by node id (node ids are
// the indices of d.Nodes).
func floorplan(d *etpn.Design) (px, py []int) {
	n := len(d.Nodes)
	// Distinct neighbours of every node with their arc multiplicities, in
	// CSR form: node v's are nb[off[v]:off[v]+deg[v]].
	off, deg := make([]int, n+1), make([]int, n)
	for _, a := range d.Arcs {
		if a.From != a.To {
			off[a.From+1]++
			off[a.To+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	nb, w := make([]int, off[n]), make([]int, off[n])
	bump := func(a, b int) {
		list := nb[off[a] : off[a]+deg[a]]
		if i := slices.Index(list, b); i >= 0 {
			w[off[a]+i]++
			return
		}
		nb[off[a]+deg[a]], w[off[a]+deg[a]] = b, 1
		deg[a]++
	}
	for _, a := range d.Arcs {
		if a.From != a.To {
			bump(a.From, a.To)
			bump(a.To, a.From)
		}
	}
	order := make([]int, n)
	for v := range order {
		order[v] = v
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(deg[b], deg[a]), cmp.Compare(a, b))
	})
	px, py = make([]int, n), make([]int, n)
	placed := make([]bool, n)
	side := int(math.Ceil(math.Sqrt(float64(n)))) + 2
	used := make([]bool, side*side)
	// The placed neighbours of the node being placed, as (x, y, weight).
	near := make([][3]int, 0, n)
	for _, id := range order {
		near = near[:0]
		for i := off[id]; i < off[id]+deg[id]; i++ {
			if q := nb[i]; placed[q] {
				near = append(near, [3]int{px[q], py[q], w[i]})
			}
		}
		best, bestCost := 0, math.Inf(1)
		for slot := range used {
			if used[slot] {
				continue
			}
			x, y := slot%side, slot/side
			c := 0
			for _, q := range near {
				c += q[2] * (abs(x-q[0]) + abs(y-q[1]))
			}
			// Every term is an exact integer, so the sum equals the
			// float64 sum in any order. Deterministic tie-break: prefer
			// slots near the origin.
			if cost := float64(c) + 1e-6*float64(slot); cost < bestCost {
				best, bestCost = slot, cost
			}
		}
		px[id], py[id] = best%side, best/side
		placed[id], used[best] = true, true
	}
	return px, py
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// EstimateDesign computes the full cost estimate of a design at the given
// bit width: component areas from the library, multiplexers inferred from
// the arc structure, and wire cost from the floorplan. The cell pitch used
// to convert grid distance to length is the square root of the mean
// component area, so wire cost scales with component size as in a real
// layout.
func EstimateDesign(d *etpn.Design, lib *Library, width int) Estimate {
	if lib == nil {
		lib = DefaultLibrary()
	}
	var e Estimate
	for _, nd := range d.Nodes {
		switch nd.Kind {
		case etpn.KindModule:
			e.ModuleArea += lib.ModuleArea(nd.Class, width)
		case etpn.KindRegister:
			e.RegArea += lib.RegisterArea(width)
		}
	}
	// Multiplexers: one per destination (node, port) with multiple sources,
	// counted from the sorted, deduplicated (node, port, source) triples.
	var dst [][3]int
	for _, a := range d.Arcs {
		if k := d.Nodes[a.To].Kind; k == etpn.KindModule || k == etpn.KindRegister {
			dst = append(dst, [3]int{a.To, a.ToPort, a.From})
		}
	}
	slices.SortFunc(dst, func(a, b [3]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]), cmp.Compare(a[2], b[2]))
	})
	dst = slices.Compact(dst)
	for i := 0; i < len(dst); {
		j := i + 1
		for j < len(dst) && dst[j][0] == dst[i][0] && dst[j][1] == dst[i][1] {
			j++
		}
		e.MuxArea += lib.MuxArea(width, j-i)
		i = j
	}
	// Wires.
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
	px, py := floorplan(d)
	for _, a := range d.Arcs {
		dist := float64(abs(px[a.From]-px[a.To]) + abs(py[a.From]-py[a.To]))
		e.WireArea += dist * pitch * float64(width) * lib.WireWeight
	}
	e.Total = e.ModuleArea + e.RegArea + e.MuxArea + e.WireArea
	return e
}
