package testability_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/etpn"
	"repro/internal/testability"
)

// oracle is the testability analysis as it was before the per-call arc
// index: every fixpoint step rescans the design's arcs through
// Design.ArcsInto/ArcsFrom and collects module ports in maps.
type oracle struct {
	cfg            testability.Config
	CC, SC, CO, SO []float64
}

func oracleFactors(c testability.Config, class string) testability.Factors {
	tbl := c.Factors
	if tbl == nil {
		tbl = testability.DefaultFactors
	}
	if f, ok := tbl[class]; ok {
		return f
	}
	return testability.Factors{CTF: 0.85, OTF: 0.75}
}

func oracleScore(c, s, lambda float64) float64 {
	if math.IsInf(s, 1) {
		return 0
	}
	return c / (1 + lambda*s)
}

func oracleBetter(c, s, oc, os, lambda, eps float64) bool {
	return oracleScore(c, s, lambda) > oracleScore(oc, os, lambda)+eps
}

func oracleAnalyze(d *etpn.Design, cfg testability.Config) *oracle {
	n := len(d.Nodes)
	m := &oracle{cfg: cfg, CC: make([]float64, n), SC: make([]float64, n), CO: make([]float64, n), SO: make([]float64, n)}
	for i := range m.SC {
		m.SC[i] = math.Inf(1)
		m.SO[i] = math.Inf(1)
	}
	for _, nd := range d.Nodes {
		switch nd.Kind {
		case etpn.KindInPort:
			m.CC[nd.ID], m.SC[nd.ID] = 1, 0
		case etpn.KindConst:
			m.CC[nd.ID], m.SC[nd.ID] = cfg.ConstCC, 0
		case etpn.KindOutPort:
			m.CO[nd.ID], m.SO[nd.ID] = 1, 0
		case etpn.KindRegister:
			if cfg.ScanNodes[nd.ID] {
				m.CC[nd.ID], m.SC[nd.ID] = 1, 1
				m.CO[nd.ID], m.SO[nd.ID] = 1, 0
			}
		}
	}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		changed := false
		for _, nd := range d.Nodes {
			cc, sc, ok := m.ctrlIn(d, nd)
			if ok && oracleBetter(cc, sc, m.CC[nd.ID], m.SC[nd.ID], cfg.Lambda, cfg.Eps) {
				m.CC[nd.ID], m.SC[nd.ID] = cc, sc
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		changed := false
		for _, nd := range d.Nodes {
			co, so, ok := m.obsOut(d, nd)
			if ok && oracleBetter(co, so, m.CO[nd.ID], m.SO[nd.ID], cfg.Lambda, cfg.Eps) {
				m.CO[nd.ID], m.SO[nd.ID] = co, so
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for i := range m.SC {
		if math.IsInf(m.SC[i], 1) {
			m.SC[i] = float64(n)
		}
		if math.IsInf(m.SO[i], 1) {
			m.SO[i] = float64(n)
		}
	}
	return m
}

func (m *oracle) ctrlIn(d *etpn.Design, nd *etpn.Node) (float64, float64, bool) {
	if nd.Kind == etpn.KindRegister && m.cfg.ScanNodes[nd.ID] {
		return 0, 0, false
	}
	switch nd.Kind {
	case etpn.KindInPort, etpn.KindConst:
		return 0, 0, false
	case etpn.KindRegister, etpn.KindOutPort:
		bestC, bestS := 0.0, math.Inf(1)
		found := false
		for _, a := range d.ArcsInto(nd.ID) {
			cc, sc := m.CC[a.From], m.SC[a.From]
			if cc == 0 {
				continue
			}
			if nd.Kind == etpn.KindRegister {
				cc *= m.cfg.RegFactor
				sc++
			}
			if !found || oracleBetter(cc, sc, bestC, bestS, m.cfg.Lambda, 0) {
				bestC, bestS, found = cc, sc, true
			}
		}
		return bestC, bestS, found
	case etpn.KindModule:
		ports := map[int][2]float64{}
		allPorts := map[int]bool{}
		for _, a := range d.ArcsInto(nd.ID) {
			allPorts[a.ToPort] = true
			cc, sc := m.CC[a.From], m.SC[a.From]
			if cc == 0 {
				continue
			}
			cur, ok := ports[a.ToPort]
			if !ok || oracleBetter(cc, sc, cur[0], cur[1], m.cfg.Lambda, 0) {
				ports[a.ToPort] = [2]float64{cc, sc}
			}
		}
		if len(ports) == 0 || len(ports) != len(allPorts) {
			return 0, 0, false
		}
		f := oracleFactors(m.cfg, nd.Class)
		cc := f.CTF
		sc := 0.0
		ids := make([]int, 0, len(ports))
		for id := range ports {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			p := ports[id]
			cc *= p[0]
			if p[1] > sc {
				sc = p[1]
			}
		}
		return cc, sc, true
	}
	return 0, 0, false
}

func (m *oracle) obsOut(d *etpn.Design, nd *etpn.Node) (float64, float64, bool) {
	if nd.Kind == etpn.KindOutPort {
		return 0, 0, false
	}
	if nd.Kind == etpn.KindRegister && m.cfg.ScanNodes[nd.ID] {
		return 0, 0, false
	}
	bestC, bestS := 0.0, math.Inf(1)
	found := false
	for _, a := range d.ArcsFrom(nd.ID) {
		to := d.Nodes[a.To]
		var co, so float64
		switch to.Kind {
		case etpn.KindOutPort:
			co, so = 1, 0
		case etpn.KindRegister:
			co, so = m.CO[a.To]*m.cfg.RegFactor, m.SO[a.To]+1
		case etpn.KindModule:
			co, so = m.CO[a.To], m.SO[a.To]
			co *= oracleFactors(m.cfg, to.Class).OTF
			for _, sib := range d.ArcsInto(a.To) {
				if sib.ToPort == a.ToPort {
					continue
				}
				best := 0.0
				for _, s2 := range d.ArcsInto(a.To) {
					if s2.ToPort == sib.ToPort && m.CC[s2.From] > best {
						best = m.CC[s2.From]
					}
				}
				co *= best
				break
			}
		default:
			continue
		}
		if co == 0 || math.IsInf(so, 1) {
			continue
		}
		if !found || oracleBetter(co, so, bestC, bestS, m.cfg.Lambda, 0) {
			bestC, bestS, found = co, so, true
		}
	}
	return bestC, bestS, found
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

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestAnalyzeMatchesOracle(t *testing.T) {
	for key, d := range flowDesigns(t) {
		// The default configuration, and one with every other register
		// on a scan chain so the anchored branches run too.
		scan := testability.DefaultConfig()
		scan.ScanNodes = map[int]bool{}
		for _, nd := range d.Nodes {
			if nd.Kind == etpn.KindRegister && nd.ID%2 == 0 {
				scan.ScanNodes[nd.ID] = true
			}
		}
		for _, cfg := range []testability.Config{testability.DefaultConfig(), scan} {
			got, want := testability.Analyze(d, cfg), oracleAnalyze(d, cfg)
			if !sameBits(got.CC, want.CC) || !sameBits(got.SC, want.SC) ||
				!sameBits(got.CO, want.CO) || !sameBits(got.SO, want.SO) {
				t.Errorf("%s (scan %v): metrics differ from the oracle", key, len(cfg.ScanNodes) > 0)
			}
		}
	}
}
