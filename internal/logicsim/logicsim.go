// Package logicsim is a 64-way bit-parallel two-valued logic simulator for
// synchronous gate-level netlists, with single-fault injection: the engine
// behind fault simulation and the random phase of ATPG. Each net carries a
// 64-bit word, one bit per parallel pattern.
package logicsim

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/gates"
)

// Sim simulates one circuit. A Sim carries DFF state between Step calls;
// Reset clears it. Not safe for concurrent use.
type Sim struct {
	C     *gates.Circuit
	order []int
	vals  []uint64
	state []uint64 // per DFF index
	po    []uint64 // Eval output buffer, reused across calls
	// Fault, when non-nil, is injected during evaluation (all 64 patterns).
	Fault *fault.Fault
}

// New prepares a simulator for c.
func New(c *gates.Circuit) (*Sim, error) {
	order, err := c.Levelize()
	if err != nil {
		return nil, err
	}
	return &Sim{
		C: c, order: order,
		vals:  make([]uint64, len(c.Gates)),
		state: make([]uint64, len(c.DFFs)),
		po:    make([]uint64, len(c.Outputs)),
	}, nil
}

// Reset zeroes all flip-flops.
func (s *Sim) Reset() {
	for i := range s.state {
		s.state[i] = 0
	}
}

// SetState forces the DFF contents (by DFF declaration order).
func (s *Sim) SetState(vals []uint64) {
	copy(s.state, vals)
}

// State returns the current DFF contents (by declaration order). The
// caller must not modify the returned slice.
func (s *Sim) State() []uint64 { return s.state }

func (s *Sim) pinVal(g *gates.Gate, pin int) uint64 {
	v := s.vals[g.In[pin]]
	if s.Fault != nil && s.Fault.Gate == g.ID && s.Fault.Pin == pin {
		if s.Fault.Val {
			return ^uint64(0)
		}
		return 0
	}
	return v
}

// Eval evaluates the combinational logic for the given primary-input
// words (one word per PI, in circuit input order) against the current DFF
// state, and returns the primary-output words. The returned slice is a
// per-Sim buffer, overwritten by the next Eval or Step call — callers
// that keep outputs across calls must copy them (Run does). Steady-state
// Eval performs no allocations; the fault-simulation inner loops depend
// on that.
func (s *Sim) Eval(pi []uint64) []uint64 {
	if len(pi) != len(s.C.Inputs) {
		panic(fmt.Sprintf("logicsim: %d input words for %d PIs", len(pi), len(s.C.Inputs)))
	}
	for i, id := range s.C.Inputs {
		s.vals[id] = pi[i]
	}
	for i, id := range s.C.DFFs {
		s.vals[id] = s.state[i]
	}
	for _, id := range s.order {
		g := s.C.Gates[id]
		var v uint64
		switch g.Kind {
		case gates.KInput:
			v = s.vals[id]
		case gates.KDFF:
			v = s.vals[id]
		case gates.KConst0:
			v = 0
		case gates.KConst1:
			v = ^uint64(0)
		case gates.KBuf:
			v = s.pinVal(g, 0)
		case gates.KNot:
			v = ^s.pinVal(g, 0)
		case gates.KAnd, gates.KNand:
			v = ^uint64(0)
			for pin := range g.In {
				v &= s.pinVal(g, pin)
			}
			if g.Kind == gates.KNand {
				v = ^v
			}
		case gates.KOr, gates.KNor:
			v = 0
			for pin := range g.In {
				v |= s.pinVal(g, pin)
			}
			if g.Kind == gates.KNor {
				v = ^v
			}
		case gates.KXor:
			v = s.pinVal(g, 0) ^ s.pinVal(g, 1)
		case gates.KXnor:
			v = ^(s.pinVal(g, 0) ^ s.pinVal(g, 1))
		}
		if s.Fault != nil && s.Fault.Gate == id && s.Fault.Pin < 0 {
			if s.Fault.Val {
				v = ^uint64(0)
			} else {
				v = 0
			}
		}
		s.vals[id] = v
	}
	for i, id := range s.C.Outputs {
		s.po[i] = s.vals[id]
	}
	return s.po
}

// Step evaluates the combinational logic and then clocks every DFF,
// returning the primary outputs observed before the clock edge. Like
// Eval, the returned slice is the Sim's reused output buffer.
func (s *Sim) Step(pi []uint64) []uint64 {
	po := s.Eval(pi)
	for i, id := range s.C.DFFs {
		g := s.C.Gates[id]
		if len(g.In) != 1 {
			panic(fmt.Sprintf("logicsim: DFF %d has no D input", id))
		}
		s.state[i] = s.pinVal(g, 0)
	}
	return po
}

// Run resets the simulator and applies a vector sequence, returning the
// outputs of every cycle. vectors[t] holds one word per PI. The rows are
// copies (they stay valid across later Eval/Step calls), carved from one
// flat backing array so a whole golden run costs two allocations.
func (s *Sim) Run(vectors [][]uint64) [][]uint64 {
	s.Reset()
	nPO := len(s.C.Outputs)
	out := make([][]uint64, len(vectors))
	flat := make([]uint64, len(vectors)*nPO)
	for t, v := range vectors {
		po := s.Step(v)
		row := flat[t*nPO : (t+1)*nPO : (t+1)*nPO]
		copy(row, po)
		out[t] = row
	}
	return out
}

// WordFromValue spreads a scalar bit pattern: value v replicated across
// all 64 parallel patterns (v is 0 or 1 per bit position... use for
// driving a bus where each net carries one bit of a word value).
func WordFromValue(bit bool) uint64 {
	if bit {
		return ^uint64(0)
	}
	return 0
}

// BusWords converts a w-bit numeric value into per-net words for a bus
// (LSB first), replicated across all 64 patterns.
func BusWords(value uint64, w int) []uint64 {
	out := make([]uint64, w)
	for i := 0; i < w; i++ {
		out[i] = WordFromValue(value&(1<<uint(i)) != 0)
	}
	return out
}
