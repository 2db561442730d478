// Package atpg implements automatic test pattern generation for
// synchronous gate-level netlists under the single stuck-at fault model:
// a random phase (bit-parallel sequential fault simulation with fault
// dropping) followed by a deterministic phase (PODEM over time-frame
// expansion). The paper's evaluation metrics — fault coverage, test
// generation time and test application cycles — are produced by the
// campaign in campaign.go.
package atpg

import (
	"math/rand"

	"repro/internal/fault"
	"repro/internal/gates"
)

// Three-valued logic values.
const (
	v0 int8 = 0
	v1 int8 = 1
	vX int8 = 2
)

func inv3(v int8) int8 {
	switch v {
	case v0:
		return v1
	case v1:
		return v0
	}
	return vX
}

// podemTables holds the per-circuit tables PODEM reads. A campaign
// builds them once and shares them read-only across every worker's
// searches.
type podemTables struct {
	c *gates.Circuit
	// order is the levelized evaluation order and pos[g] is gate g's index
	// in it. level[g] is gate g's logic depth (0 for inputs, flip-flops
	// and constants), so every combinational fan-out of g sits on a
	// strictly higher level; levels is one more than the deepest level.
	order  []int
	pos    []int32
	level  []int32
	levels int
	fanout [][]int
	// isDFF[g] reports whether gate g is a flip-flop.
	isDFF []bool
	// obsDist[g] is the static fanout distance from gate g to the nearest
	// primary output (crossing flip-flops freely); used to steer the
	// D-frontier toward observable logic.
	obsDist []int
	// piIx[g] is the primary-input index of gate g (-1 for other gates).
	piIx []int
}

func newPodemTables(c *gates.Circuit) (*podemTables, error) {
	order, err := c.Levelize()
	if err != nil {
		return nil, err
	}
	tb := &podemTables{c: c, order: order, pos: make([]int32, len(c.Gates)), level: make([]int32, len(c.Gates)), piIx: make([]int, len(c.Gates))}
	for i, id := range order {
		tb.pos[id] = int32(i)
		g := c.Gates[id]
		if isLogic(g.Kind) {
			for _, in := range g.In {
				if l := tb.level[in] + 1; l > tb.level[id] {
					tb.level[id] = l
				}
			}
		}
		if int(tb.level[id]) >= tb.levels {
			tb.levels = int(tb.level[id]) + 1
		}
	}
	for i := range tb.piIx {
		tb.piIx[i] = -1
	}
	for k, id := range c.Inputs {
		tb.piIx[id] = k
	}
	tb.fanout = make([][]int, len(c.Gates))
	tb.isDFF = make([]bool, len(c.Gates))
	for _, g := range c.Gates {
		tb.isDFF[g.ID] = g.Kind == gates.KDFF
		for _, in := range g.In {
			tb.fanout[in] = append(tb.fanout[in], g.ID)
		}
	}
	tb.obsDist = make([]int, len(c.Gates))
	const inf = 1 << 29
	for i := range tb.obsDist {
		tb.obsDist[i] = inf
	}
	queue := make([]int, 0, len(c.Gates))
	for _, o := range c.Outputs {
		if tb.obsDist[o] == inf {
			tb.obsDist[o] = 0
			queue = append(queue, o)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, in := range c.Gates[id].In {
			if tb.obsDist[in] > tb.obsDist[id]+1 {
				tb.obsDist[in] = tb.obsDist[id] + 1
				queue = append(queue, in)
			}
		}
	}
	return tb, nil
}

// isLogic reports whether a gate kind is combinational logic: neither a
// primary input, a flip-flop nor a constant.
func isLogic(k gates.Kind) bool {
	return k != gates.KInput && k != gates.KDFF && k != gates.KConst0 && k != gates.KConst1
}

// frameSim simulates the good and faulty circuits over T time frames with
// three-valued logic. Frame 0 starts from the all-zero reset state.
//
// Implication is event-driven: reset simulates every frame once, and
// afterwards assign queues the changed input, so simulate re-evaluates
// only gates whose inputs changed since the last pass.
type frameSim struct {
	*podemTables
	frames int
	flt    fault.Fault
	// pi[t][k] is the assigned value of primary input k in frame t.
	pi [][]int8
	// good[t][g], bad[t][g] are the circuit values.
	good, bad [][]int8
	// cone lists the nets of the fault's static fan-out cone (crossing
	// flip-flops). Outside it the good and faulty circuits agree on every
	// net in every frame, so only these nets can carry a fault effect.
	cone   []int32
	inCone []bool // all false between setFault calls
	// The event queue: bucket[t][l] holds the gates of level l pending
	// re-evaluation in frame t, pending[t] counts them, queued[t][g] marks
	// membership, and dirty is the earliest frame with pending gates.
	bucket  [][][]int32
	pending []int
	queued  [][]bool
	dirty   int
	// Scratch buffers for gate evaluation, backtrace and the decision
	// stack.
	insG, insB []int8
	xs         []int
	stack      []decision
	// rng randomizes backtrace choices (nil: deterministic); restartRNG
	// is a generator the campaign reseeds for each randomized restart.
	rng, restartRNG *rand.Rand
	// implications counts the nominal frames x gates of every
	// implication pass, the ATPG effort measure.
	implications int64
	// evals counts the gate evaluations actually performed.
	evals int64
}

// newFrameSim returns a search engine over the circuit of tb. Its
// buffers are sized on the first reset and reused by every later search,
// for any fault.
func newFrameSim(tb *podemTables) *frameSim {
	return &frameSim{podemTables: tb, inCone: make([]bool, len(tb.c.Gates))}
}

// setFault aims the engine at a fault and computes the fault's cone.
func (fs *frameSim) setFault(flt fault.Fault) {
	fs.flt = flt
	fs.inCone[flt.Gate] = true
	fs.cone = append(fs.cone[:0], int32(flt.Gate))
	for i := 0; i < len(fs.cone); i++ {
		for _, fo := range fs.fanout[fs.cone[i]] {
			if !fs.inCone[fo] {
				fs.inCone[fo] = true
				fs.cone = append(fs.cone, int32(fo))
			}
		}
	}
	for _, id := range fs.cone {
		fs.inCone[id] = false
	}
}

// reset starts a fresh search over the given number of frames: every
// primary input unassigned, the event queue empty, and both circuits
// fully simulated once. The effort counters restart from zero.
func (fs *frameSim) reset(frames int, rng *rand.Rand) {
	n := len(fs.c.Gates)
	if cap(fs.good) < frames {
		fs.pi = rows(frames, len(fs.c.Inputs))
		fs.good = rows(frames, n)
		fs.bad = rows(frames, n)
		fs.queued = make([][]bool, frames)
		fs.bucket = make([][][]int32, frames)
		for t := range fs.queued {
			fs.queued[t] = make([]bool, n)
			fs.bucket[t] = make([][]int32, fs.levels)
		}
		fs.pending = make([]int, frames)
	}
	// Drop events left by a search that returned before simulating its
	// last assignment.
	for t := range fs.bucket {
		for l, b := range fs.bucket[t] {
			for _, id := range b {
				fs.queued[t][id] = false
			}
			fs.bucket[t][l] = b[:0]
		}
		fs.pending[t] = 0
	}
	fs.frames = frames
	fs.pi = fs.pi[:frames]
	fs.good = fs.good[:frames]
	fs.bad = fs.bad[:frames]
	fs.dirty = frames
	fs.rng = rng
	fs.implications, fs.evals = 0, 0
	for t := 0; t < frames; t++ {
		for k := range fs.pi[t] {
			fs.pi[t][k] = vX
		}
		for _, id := range fs.order {
			fs.good[t][id], fs.bad[t][id] = fs.eval(t, id)
		}
	}
	fs.evals += int64(frames * len(fs.order))
}

// rows allocates an r x n matrix backed by one slice.
func rows(r, n int) [][]int8 {
	flat := make([]int8, r*n)
	m := make([][]int8, r)
	for i := range m {
		m[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// assign sets primary input k in frame t to v (vX unassigns it) and
// queues the input for the next simulate.
func (fs *frameSim) assign(t, k int, v int8) {
	if fs.pi[t][k] == v {
		return
	}
	fs.pi[t][k] = v
	fs.enqueue(t, fs.c.Inputs[k])
}

func (fs *frameSim) enqueue(t, id int) {
	if fs.queued[t][id] {
		return
	}
	fs.queued[t][id] = true
	l := fs.level[id]
	fs.bucket[t][l] = append(fs.bucket[t][l], int32(id))
	fs.pending[t]++
	if t < fs.dirty {
		fs.dirty = t
	}
}

func eval3(kind gates.Kind, ins []int8) int8 {
	switch kind {
	case gates.KConst0:
		return v0
	case gates.KConst1:
		return v1
	case gates.KBuf:
		return ins[0]
	case gates.KNot:
		return inv3(ins[0])
	case gates.KAnd, gates.KNand:
		out := v1
		for _, x := range ins {
			if x == v0 {
				out = v0
				break
			}
			if x == vX {
				out = vX
			}
		}
		if kind == gates.KNand {
			out = inv3(out)
		}
		return out
	case gates.KOr, gates.KNor:
		out := v0
		for _, x := range ins {
			if x == v1 {
				out = v1
				break
			}
			if x == vX {
				out = vX
			}
		}
		if kind == gates.KNor {
			out = inv3(out)
		}
		return out
	case gates.KXor, gates.KXnor:
		a, b := ins[0], ins[1]
		if a == vX || b == vX {
			return vX
		}
		out := a ^ b
		if kind == gates.KXnor {
			out = inv3(out)
		}
		return out
	}
	return vX
}

// eval computes gate id's good and faulty values in frame t from the
// current values of its inputs.
func (fs *frameSim) eval(t, id int) (gv, bv int8) {
	g := fs.c.Gates[id]
	switch g.Kind {
	case gates.KInput:
		gv = fs.pi[t][fs.piIx[id]]
		bv = gv
	case gates.KDFF:
		if t == 0 {
			gv, bv = v0, v0 // reset state
		} else {
			// Q in frame t is D of frame t-1, with a possible
			// fault on the D pin.
			d := g.In[0]
			gv = fs.good[t-1][d]
			bv = fs.bad[t-1][d]
			if fs.flt.Gate == id && fs.flt.Pin == 0 {
				bv = bool2v(fs.flt.Val)
			}
		}
	default:
		insG, insB := fs.insG[:0], fs.insB[:0]
		for pin, in := range g.In {
			pg := fs.good[t][in]
			pb := fs.bad[t][in]
			if fs.flt.Gate == id && fs.flt.Pin == pin {
				pb = bool2v(fs.flt.Val)
			}
			insG = append(insG, pg)
			insB = append(insB, pb)
		}
		gv = eval3(g.Kind, insG)
		bv = eval3(g.Kind, insB)
		fs.insG, fs.insB = insG, insB
	}
	if fs.flt.Gate == id && fs.flt.Pin < 0 {
		bv = bool2v(fs.flt.Val)
	}
	return gv, bv
}

// simulate brings both circuits up to date with the current PI
// assignment. It drains the event queue frame by frame from the earliest
// dirty frame and level by level within a frame, re-evaluating only
// queued gates; a gate whose good or faulty value changed queues its
// fan-out (a flip-flop fan-out in the next frame). The effort measure
// still counts the nominal frames x gates of a full pass.
func (fs *frameSim) simulate() {
	fs.implications += int64(fs.frames * len(fs.order))
	for t := fs.dirty; t < fs.frames; t++ {
		bt := fs.bucket[t]
		for l := 0; fs.pending[t] > 0; l++ {
			for _, id32 := range bt[l] {
				id := int(id32)
				fs.queued[t][id] = false
				fs.pending[t]--
				fs.evals++
				gv, bv := fs.eval(t, id)
				if gv == fs.good[t][id] && bv == fs.bad[t][id] {
					continue
				}
				fs.good[t][id], fs.bad[t][id] = gv, bv
				for _, fo := range fs.fanout[id] {
					if !fs.isDFF[fo] {
						fs.enqueue(t, fo)
					} else if t+1 < fs.frames {
						fs.enqueue(t+1, fo)
					}
				}
			}
			bt[l] = bt[l][:0]
		}
	}
	fs.dirty = fs.frames
}

func bool2v(b bool) int8 {
	if b {
		return v1
	}
	return v0
}

// detected reports whether any primary output in any frame shows a binary
// good/bad difference.
func (fs *frameSim) detected() bool {
	for t := 0; t < fs.frames; t++ {
		for _, o := range fs.c.Outputs {
			g, b := fs.good[t][o], fs.bad[t][o]
			if g != vX && b != vX && g != b {
				return true
			}
		}
	}
	return false
}

// siteNet returns the net whose good value determines fault activation:
// the gate's output for output faults, the driving net for pin faults.
func (fs *frameSim) siteNet() int {
	if fs.flt.Pin < 0 {
		return fs.flt.Gate
	}
	return fs.c.Gates[fs.flt.Gate].In[fs.flt.Pin]
}

// excited returns the first frame in which the fault is excited (the good
// value at the fault site is the complement of the stuck value), or -1,
// and whether excitation has become impossible (the site is bound to the
// stuck value in every frame).
func (fs *frameSim) excited() (first int, conflict bool) {
	site := fs.siteNet()
	stuck := bool2v(fs.flt.Val)
	conflict = true
	for t := 0; t < fs.frames; t++ {
		g := fs.good[t][site]
		if g != vX && g != stuck {
			return t, false
		}
		if g == vX {
			conflict = false
		}
	}
	return -1, conflict
}

// objective returns a (gate, frame, value) goal for the good circuit, or
// ok=false when no useful objective exists (D-frontier empty).
func (fs *frameSim) objective() (gate, frame int, val int8, ok bool) {
	bestGate, bestFrame := -1, -1
	if first, _ := fs.excited(); first >= 0 {
		bestGate, bestFrame = fs.frontier(first)
	}
	if bestGate < 0 {
		// Activation: make the good value at the fault site the complement
		// of the stuck value in a frame where it is still unjustified. This
		// also re-excites a fault whose excited frames are all masked (no
		// D-frontier) — a register fault may be observable only in a frame
		// the first excitation cannot reach.
		want := inv3(bool2v(fs.flt.Val))
		site := fs.siteNet()
		for t := 0; t < fs.frames; t++ {
			if fs.good[t][site] == vX {
				return site, t, want, true
			}
		}
		return 0, 0, 0, false
	}
	// Propagation: set one of the chosen gate's X inputs to the
	// non-controlling value.
	g := fs.c.Gates[bestGate]
	nc, has := nonControlling(g.Kind)
	for _, in := range g.In {
		if fs.good[bestFrame][in] == vX {
			if has {
				return in, bestFrame, nc, true
			}
			return in, bestFrame, v0, true // XOR-ish: either value works
		}
	}
	return 0, 0, 0, false
}

// frontier picks, among all D-frontier gates — X-output gates with a
// fault-effect input — the one statically closest to a primary output,
// the first in (frame, order) sequence on a tie. It returns gate -1 when
// the D-frontier is empty. first is the first frame the fault is excited.
//
// Only the fan-outs of nets carrying a fault effect, plus the faulted gate
// itself for a pin fault, can be on the D-frontier. Those nets lie in the
// fault's fan-out cone, and in no frame before the first excited one:
// until then the faulty circuit only refines the good circuit's X values.
func (fs *frameSim) frontier(first int) (gate, frame int) {
	gate, frame = -1, -1
	bestDist, bestPos := 1<<30, int32(0)
	consider := func(t, id int) {
		d, p := fs.obsDist[id], fs.pos[id]
		if d > bestDist || d == bestDist && (t > frame || p >= bestPos) || !fs.onFrontier(t, id) {
			return
		}
		gate, frame, bestDist, bestPos = id, t, d, p
	}
	for t := first; t < fs.frames; t++ {
		if fs.flt.Pin >= 0 {
			consider(t, fs.flt.Gate)
		}
		good, bad := fs.good[t], fs.bad[t]
		for _, n := range fs.cone {
			if a, b := good[n], bad[n]; a == b || a == vX || b == vX {
				continue
			}
			for _, fo := range fs.fanout[n] {
				consider(t, fo)
			}
		}
	}
	return gate, frame
}

// onFrontier reports whether gate id is on the D-frontier in frame t: a
// logic gate whose output is X in either circuit and which has a fault
// effect on an input.
func (fs *frameSim) onFrontier(t, id int) bool {
	g := fs.c.Gates[id]
	if !isLogic(g.Kind) || fs.good[t][id] != vX && fs.bad[t][id] != vX {
		return false
	}
	for pin, in := range g.In {
		a, b := fs.good[t][in], fs.bad[t][in]
		if id == fs.flt.Gate && pin == fs.flt.Pin {
			// The pin itself carries the fault: effective bad value
			// is the stuck value.
			b = bool2v(fs.flt.Val)
		}
		if a != vX && b != vX && a != b {
			return true
		}
	}
	return false
}

// nonControlling returns the value an input must take so as not to mask
// the other inputs.
func nonControlling(k gates.Kind) (int8, bool) {
	switch k {
	case gates.KAnd, gates.KNand:
		return v1, true
	case gates.KOr, gates.KNor:
		return v0, true
	default:
		return vX, false
	}
}

// backtrace walks an objective back to an unassigned primary input,
// following X-valued paths in the good circuit and accounting for
// inversions. It returns ok=false when every path dead-ends (e.g. into
// the frame-0 reset state or a constant).
func (fs *frameSim) backtrace(gate, frame int, val int8) (pi, piFrame int, piVal int8, ok bool) {
	id, t, v := gate, frame, val
	for depth := 0; depth < len(fs.c.Gates)*fs.frames+8; depth++ {
		g := fs.c.Gates[id]
		switch g.Kind {
		case gates.KInput:
			k := fs.piIx[id]
			if fs.pi[t][k] != vX {
				return 0, 0, 0, false // already bound; path dead
			}
			return k, t, v, true
		case gates.KConst0, gates.KConst1:
			return 0, 0, 0, false
		case gates.KDFF:
			if t == 0 {
				return 0, 0, 0, false // reset state is fixed
			}
			id, t = g.In[0], t-1
			continue
		case gates.KNot, gates.KNand, gates.KNor, gates.KXnor:
			v = inv3(v)
		}
		// Choose an X input to pursue; randomizing the choice across
		// restarts diversifies the search.
		xs := fs.xs[:0]
		for _, in := range g.In {
			if fs.good[t][in] == vX {
				xs = append(xs, in)
			}
		}
		fs.xs = xs
		if len(xs) == 0 {
			return 0, 0, 0, false
		}
		next := xs[0]
		if fs.rng != nil && len(xs) > 1 {
			next = xs[fs.rng.Intn(len(xs))]
		}
		// For XOR-like gates the required input value is unconstrained
		// (other inputs may be known); any binary value can work. Keep v
		// as the heuristic target.
		id = next
		if v == vX {
			v = v0
		}
	}
	return 0, 0, 0, false
}

// podemResult is the outcome of a deterministic test-generation attempt.
type podemResult struct {
	Success      bool
	Aborted      bool // backtrack limit hit: fault not proven untestable
	Vectors      [][]int8
	Implications int64 // nominal frames x gates per implication pass
	GateEvals    int64 // gate evaluations actually performed
	Backtracks   int
}

// decision is one PODEM decision: a primary input bound in a frame, and
// whether its alternative value has been tried.
type decision struct {
	pi, frame int
	val       int8
	flipped   bool
}

// podem runs PODEM for the frameSim's fault over the given number of time
// frames, with a backtrack limit. A non-nil rng randomizes backtrace path
// and value choices, which lets a caller escape unproductive search
// regions by restarting. On success, Vectors holds one PI assignment per
// frame (X entries are don't-cares).
func (fs *frameSim) podem(frames, backtrackLimit int, rng *rand.Rand) *podemResult {
	fs.reset(frames, rng)
	stack := fs.stack[:0]
	res := &podemResult{}
	done := func() *podemResult {
		fs.stack = stack
		res.Implications = fs.implications
		res.GateEvals = fs.evals
		return res
	}
	for {
		fs.simulate()
		if fs.detected() {
			res.Success = true
			res.Vectors = make([][]int8, frames)
			for t, row := range fs.pi {
				res.Vectors[t] = append([]int8(nil), row...)
			}
			return done()
		}
		_, conflict := fs.excited()
		var gate, frame int
		var val int8
		objOK := false
		if !conflict {
			gate, frame, val, objOK = fs.objective()
		}
		advanced := false
		if objOK {
			if pi, pf, pv, ok := fs.backtrace(gate, frame, val); ok {
				fs.assign(pf, pi, pv)
				stack = append(stack, decision{pi, pf, pv, false})
				advanced = true
			}
		}
		if advanced {
			continue
		}
		// Backtrack.
		for {
			if len(stack) == 0 {
				res.Backtracks++
				return done() // exhausted: untestable within frames
			}
			top := &stack[len(stack)-1]
			if !top.flipped {
				top.flipped = true
				top.val = inv3(top.val)
				fs.assign(top.frame, top.pi, top.val)
				res.Backtracks++
				break
			}
			fs.assign(top.frame, top.pi, vX)
			stack = stack[:len(stack)-1]
		}
		if res.Backtracks > backtrackLimit {
			res.Aborted = true
			return done()
		}
	}
}
