package logicsim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/fault"
	"repro/internal/gates"
	"repro/internal/parallel"
)

// Differential fault simulation (Cheng & Yu, 1989). The good machine is
// simulated once per window of cycles and every net's word is recorded; each
// faulty machine is then simulated only where it diverges from that record.
// A faulty net whose word equals the good word is never stored: readers take
// it from the good trajectory, so one cycle of a faulty machine costs the
// gates its divergence reaches, not the whole circuit.
//
// The kernel numbers nets by their position in the levelized order, so a
// gate's readers always sit at higher positions: a bitset over positions,
// scanned upward, is the event queue.

// trajBudget bounds the good trajectory of one window in bytes: a window is
// trajBudget/(8·gates) cycles long, so session memory does not grow with the
// cycle count. 256 KiB keeps a window cache-resident while the faults sweep
// it; a 4 MiB budget measured no faster and raised the table pass's
// resident set by ~6% (DESIGN.md §4m).
const trajBudget = 256 << 10

// testWindow, when positive, overrides the window length (package tests
// only), so multi-window sessions are reachable on small circuits.
var testWindow int

// DiffConfig describes a differential session: the circuit free-runs from
// Init for Cycles cycles under Stimulus, and a fault counts as detected when
// any Observe net differs from the good machine in a Mask lane on the final
// cycle.
type DiffConfig struct {
	Cycles int
	// Init is the DFF start state (SetState order) of every machine; nil
	// means all zeros.
	Init []uint64
	// Stimulus fills the primary-input words of the next cycle. It is called
	// once per cycle, in cycle order, on the calling goroutine.
	Stimulus func(row []uint64)
	// Observe lists the net ids compared on the final cycle.
	Observe []int
	// Mask selects the compared pattern lanes.
	Mask uint64
	// Workers bounds the goroutines the faults are spread over (0 = one per
	// CPU, 1 = sequential). The result is identical at every worker count.
	Workers int

	// trace, when set (package tests only), is called after each faulty
	// cycle with the fault index, the cycle and a reader of the faulty
	// machine's net words. It runs on the worker goroutines, so tests that
	// keep state in it use Workers 1.
	trace func(fi, cycle int, net func(id int) uint64)
}

// DiffResult reports a differential session.
type DiffResult struct {
	// Detected is parallel to the fault list; only the first Completed
	// entries are meaningful.
	Detected []bool
	// Completed is the length of the prefix of faults simulated through the
	// final cycle: the whole list unless the context was cancelled.
	Completed int
	// GateEvals counts the gate evaluations performed: the good machine's
	// gates×cycles plus the faulty-machine evaluations of the completed
	// faults.
	GateEvals int64
}

// DiffSession runs a differential fault-simulation session over flist. The
// context is checked per window and per fault; a cancelled session returns
// the completed prefix of faults with a nil error.
func DiffSession(ctx context.Context, c *gates.Circuit, flist []fault.Fault, cfg DiffConfig) (*DiffResult, error) {
	if cfg.Cycles < 1 {
		return nil, fmt.Errorf("logicsim: differential session needs at least one cycle, got %d", cfg.Cycles)
	}
	k, err := newDiffKernel(c)
	if err != nil {
		return nil, err
	}
	good, err := New(c)
	if err != nil {
		return nil, err
	}
	good.SetState(cfg.Init)
	observe := make([]int32, len(cfg.Observe))
	for i, id := range cfg.Observe {
		observe[i] = k.pos[id]
	}
	n := len(c.Gates)
	w := diffWindow(cfg.Cycles, n)
	traj := make([]uint64, w*n)
	row := make([]uint64, len(c.Inputs))
	res := &DiffResult{Detected: make([]bool, len(flist))}
	evals := make([]int64, len(flist))
	done := make([]bool, len(flist))
	var carry [][]dffDiv // per fault, the DFF divergence entering the next window
	if w < cfg.Cycles {
		carry = make([][]dffDiv, len(flist))
	}
	pool := &workerPool{k: k}
	for t0 := 0; t0 < cfg.Cycles && ctx.Err() == nil; t0 += w {
		rows := min(w, cfg.Cycles-t0)
		for r := 0; r < rows; r++ {
			cfg.Stimulus(row)
			good.Step(row)
			g := traj[r*n : (r+1)*n]
			for p, id := range k.order {
				g[p] = good.vals[id]
			}
		}
		res.GateEvals += int64(rows * n)
		last := t0+rows == cfg.Cycles
		pool.reset()
		err := parallel.ForEachWorkerCtx(ctx, cfg.Workers, len(flist), pool.get,
			func(s *diffWorker, i int) error {
				var in []dffDiv
				if carry != nil {
					in = carry[i]
				}
				det := s.run(&cfg, &flist[i], i, traj, t0, rows, in, last, observe)
				evals[i] += s.evals
				if last {
					res.Detected[i], done[i] = det, true
				} else {
					carry[i] = append(carry[i][:0], s.cur...)
				}
				return nil
			})
		if err != nil {
			if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				break
			}
			return nil, err
		}
	}
	for res.Completed < len(flist) && done[res.Completed] {
		res.GateEvals += evals[res.Completed]
		res.Completed++
	}
	return res, nil
}

// diffWindow is the window length for a session: as many cycles as the
// trajectory budget holds, at least one, at most the whole session.
func diffWindow(cycles, nGates int) int {
	w := trajBudget / (8 * max(nGates, 1))
	if testWindow > 0 {
		w = testWindow
	}
	return max(1, min(w, cycles))
}

// diffKernel is the per-circuit, read-only part of a session, shared by
// every worker. Nets are numbered by position in the levelized order (order
// maps a position to its gate id, pos the reverse); the per-gate records,
// the fan-in and fan-out lists they index (CSR), the DFF maps and the
// trajectory rows are all in positions.
type diffKernel struct {
	order   []int32
	pos     []int32
	gates   []diffGate
	inNet   []int32 // fan-in nets, pin order
	foGate  []int32 // distinct combinational readers, ascending
	fdDFF   []int32 // DFFs whose D pin reads the net, by DFF index
	dffGate []int32 // DFF index -> position
	dffD    []int32 // DFF index -> D net position
}

// diffGate is one gate's record: fan-in inNet[in:inEnd], combinational
// fan-out foGate[fo:foEnd], DFF fan-out fdDFF[fd:fdEnd]; dff is the gate's
// DFF index, -1 for other gates.
type diffGate struct {
	kind      gates.Kind
	dff       int32
	in, inEnd int32
	fo, foEnd int32
	fd, fdEnd int32
}

func isSource(k gates.Kind) bool {
	return k == gates.KInput || k == gates.KConst0 || k == gates.KConst1 || k == gates.KDFF
}

func newDiffKernel(c *gates.Circuit) (*diffKernel, error) {
	order, err := c.Levelize()
	if err != nil {
		return nil, err
	}
	n := len(c.Gates)
	k := &diffKernel{
		order:   make([]int32, n),
		pos:     make([]int32, n),
		gates:   make([]diffGate, n),
		dffGate: make([]int32, len(c.DFFs)),
		dffD:    make([]int32, len(c.DFFs)),
	}
	pins := 0
	for p, id := range order {
		k.order[p], k.pos[id] = int32(id), int32(p)
		pins += len(c.Gates[id].In)
	}
	k.inNet = make([]int32, 0, pins)
	for p, id := range order {
		g := c.Gates[id]
		dg := &k.gates[p]
		dg.kind, dg.dff = g.Kind, -1
		dg.in = int32(len(k.inNet))
		for _, in := range g.In {
			k.inNet = append(k.inNet, k.pos[in])
		}
		dg.inEnd = int32(len(k.inNet))
	}
	for i, id := range c.DFFs {
		g := c.Gates[id]
		if len(g.In) != 1 {
			return nil, fmt.Errorf("logicsim: DFF %d has no D input", id)
		}
		p := k.pos[id]
		k.dffGate[i], k.dffD[i], k.gates[p].dff = p, k.pos[g.In[0]], int32(i)
	}
	// Fan-out lists: count each reader once per net, then fill. Readers are
	// visited in ascending position, so every list is sorted.
	readers := func(visit func(net, reader int32)) {
		last := make([]int32, n)
		for p := range last {
			last[p] = -1
		}
		for p := range k.gates {
			dg := &k.gates[p]
			for _, in := range k.inNet[dg.in:dg.inEnd] {
				if last[in] != int32(p) {
					last[in] = int32(p)
					visit(in, int32(p))
				}
			}
		}
	}
	nFo := make([]int32, n)
	nFd := make([]int32, n)
	readers(func(net, r int32) {
		if k.gates[r].kind == gates.KDFF {
			nFd[net]++
		} else {
			nFo[net]++
		}
	})
	var fo, fd int32
	for p := range k.gates {
		dg := &k.gates[p]
		dg.fo, dg.foEnd = fo, fo
		dg.fd, dg.fdEnd = fd, fd
		fo += nFo[p]
		fd += nFd[p]
	}
	k.foGate = make([]int32, fo)
	k.fdDFF = make([]int32, fd)
	readers(func(net, r int32) {
		dg := &k.gates[net]
		if rg := k.gates[r]; rg.kind == gates.KDFF {
			k.fdDFF[dg.fdEnd] = rg.dff
			dg.fdEnd++
		} else {
			k.foGate[dg.foEnd] = r
			dg.foEnd++
		}
	})
	return k, nil
}

// workerPool hands each worker goroutine of a window its faulty-machine
// state, reusing the previous windows' states so a long session allocates
// them once.
type workerPool struct {
	k    *diffKernel
	mu   sync.Mutex
	all  []*diffWorker
	next int
}

func (p *workerPool) reset() { p.next = 0 }

func (p *workerPool) get() (*diffWorker, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next == len(p.all) {
		p.all = append(p.all, newDiffWorker(p.k))
	}
	p.next++
	return p.all[p.next-1], nil
}

// dffDiv is one diverged flip-flop: its DFF index and faulty state word.
type dffDiv struct {
	ix  int32
	val uint64
}

// diffWorker is one worker's faulty-machine state. Net p is diverged in the
// current cycle when div[p] == epoch, and its faulty word is then bad[p];
// every other net reads its word from the good row g. Bumping epoch clears
// all marks at once. Queued gates are the set bits of queue, each word
// cleared as the scan passes it.
type diffWorker struct {
	k        *diffKernel
	bad      []uint64
	div      []uint32
	queue    []uint64
	qLo, qHi int      // queued word range of the current cycle
	nsMark   []uint32 // per DFF: epoch in which it became a next-state candidate
	ns       []int32  // next-state candidates of the current cycle
	cur      []dffDiv
	next     []dffDiv
	epoch    uint32
	evals    int64

	// The fault under simulation and the good row of the current cycle.
	g     []uint64
	fg    int32
	fp    int
	stuck uint64
}

func newDiffWorker(k *diffKernel) *diffWorker {
	n := len(k.gates)
	return &diffWorker{
		k:      k,
		bad:    make([]uint64, n),
		div:    make([]uint32, n),
		queue:  make([]uint64, (n+63)/64),
		nsMark: make([]uint32, len(k.dffGate)),
	}
}

// newCycle starts a cycle on good row g, invalidating every mark.
func (s *diffWorker) newCycle(g []uint64) {
	s.epoch++
	if s.epoch == 0 { // wrapped: stale marks could alias the new epoch
		clear(s.div)
		clear(s.nsMark)
		s.epoch = 1
	}
	s.g = g
	s.qLo, s.qHi = len(s.queue), -1
}

// read returns the faulty machine's word on net p.
func (s *diffWorker) read(p int32) uint64 {
	if s.div[p] == s.epoch {
		return s.bad[p]
	}
	return s.g[p]
}

// pin returns the word gate input i sees: the stuck value when i is the
// faulted pin pf, the driving net's faulty word otherwise.
func (s *diffWorker) pin(ins []int32, i, pf int) uint64 {
	if i == pf {
		return s.stuck
	}
	return s.read(ins[i])
}

// set records gate p's faulty word for this cycle. A word that differs from
// the good one marks the net diverged and schedules its readers: gates into
// the queue, DFFs as next-state candidates.
func (s *diffWorker) set(p int32, v uint64) {
	s.evals++
	if v == s.g[p] {
		return
	}
	s.bad[p], s.div[p] = v, s.epoch
	k := s.k
	dg := &k.gates[p]
	for _, r := range k.foGate[dg.fo:dg.foEnd] {
		s.enqueue(r)
	}
	for _, ix := range k.fdDFF[dg.fd:dg.fdEnd] {
		s.candidate(ix)
	}
}

func (s *diffWorker) enqueue(p int32) {
	w := int(p >> 6)
	s.queue[w] |= 1 << uint(p&63)
	s.qLo, s.qHi = min(s.qLo, w), max(s.qHi, w)
}

func (s *diffWorker) candidate(ix int32) {
	if s.nsMark[ix] == s.epoch {
		return
	}
	s.nsMark[ix] = s.epoch
	s.ns = append(s.ns, ix)
}

// drain evaluates the queued gates in ascending position. A gate only queues
// readers at higher positions, so the upward scan reaches each of them after
// all of its inputs are final, and leaves the queue empty.
func (s *diffWorker) drain() {
	for w := s.qLo; w <= s.qHi; w++ {
		for s.queue[w] != 0 {
			b := bits.TrailingZeros64(s.queue[w])
			s.queue[w] &^= 1 << uint(b)
			s.eval(int32(w<<6 | b))
		}
	}
}

// eval computes combinational gate p exactly as Sim.Eval does, pin and
// output faults included.
func (s *diffWorker) eval(p int32) {
	dg := &s.k.gates[p]
	ins := s.k.inNet[dg.in:dg.inEnd]
	pf := -1
	if p == s.fg {
		pf = s.fp
	}
	var v uint64
	switch dg.kind {
	case gates.KBuf:
		v = s.pin(ins, 0, pf)
	case gates.KNot:
		v = ^s.pin(ins, 0, pf)
	case gates.KAnd, gates.KNand:
		v = ^uint64(0)
		for i := range ins {
			v &= s.pin(ins, i, pf)
		}
		if dg.kind == gates.KNand {
			v = ^v
		}
	case gates.KOr, gates.KNor:
		for i := range ins {
			v |= s.pin(ins, i, pf)
		}
		if dg.kind == gates.KNor {
			v = ^v
		}
	case gates.KXor:
		v = s.pin(ins, 0, pf) ^ s.pin(ins, 1, pf)
	case gates.KXnor:
		v = ^(s.pin(ins, 0, pf) ^ s.pin(ins, 1, pf))
	}
	if p == s.fg && s.fp < 0 {
		v = s.stuck
	}
	s.set(p, v)
}

// run simulates fault f (index fi) over one window: rows cycles starting at
// session cycle t0, on the good trajectory traj, entering the window with DFF
// divergence in. It reports whether the final cycle detects the fault on the
// observed nets when the window is the session's last; s.cur holds the
// divergence leaving the window and s.evals the evaluations spent.
func (s *diffWorker) run(cfg *DiffConfig, f *fault.Fault, fi int, traj []uint64, t0, rows int, in []dffDiv, last bool, observe []int32) bool {
	k := s.k
	n := len(k.gates)
	s.cur = append(s.cur[:0], in...)
	s.evals = 0
	s.fg, s.fp, s.stuck = k.pos[f.Gate], f.Pin, 0
	if f.Val {
		s.stuck = ^uint64(0)
	}
	// A source's output fault is applied directly; a gate fault requeues the
	// gate every cycle; a DFF D-pin fault makes that DFF a next-state
	// candidate every cycle.
	fk := k.gates[s.fg].kind
	srcOut := isSource(fk) && f.Pin < 0
	comb := !isSource(fk)
	dPin := int32(-1)
	if fk == gates.KDFF && f.Pin == 0 {
		dPin = k.gates[s.fg].dff
	}
	detected := false
	for r := 0; r < rows; r++ {
		g := traj[r*n : (r+1)*n]
		s.newCycle(g)
		if srcOut {
			s.set(s.fg, s.stuck)
		}
		for _, d := range s.cur {
			if p := k.dffGate[d.ix]; !(srcOut && p == s.fg) {
				s.set(p, d.val)
			}
		}
		if comb {
			s.enqueue(s.fg)
		}
		if dPin >= 0 {
			s.candidate(dPin)
		}
		s.drain()
		s.next = s.next[:0]
		for _, ix := range s.ns {
			d := k.dffD[ix]
			v := s.stuck
			if ix != dPin {
				v = s.read(d)
			}
			if v != g[d] {
				s.next = append(s.next, dffDiv{ix, v})
			}
		}
		s.ns = s.ns[:0]
		if cfg.trace != nil {
			cfg.trace(fi, t0+r, func(id int) uint64 { return s.read(k.pos[id]) })
		}
		if last && r == rows-1 {
			for _, o := range observe {
				if (s.read(o)^g[o])&cfg.Mask != 0 {
					detected = true
					break
				}
			}
		}
		s.cur, s.next = s.next, s.cur
	}
	return detected
}
