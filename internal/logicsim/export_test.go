package logicsim

// Test-only access for the external logicsim_test package, whose oracle
// tests build real BIST netlists through packages that import logicsim.

// SetDiffWindow forces the differential window length; the returned func
// restores the budget-derived length.
func SetDiffWindow(w int) (restore func()) {
	old := testWindow
	testWindow = w
	return func() { testWindow = old }
}

// WithTrace returns cfg with the per-cycle faulty-machine trace hook set.
func WithTrace(cfg DiffConfig, fn func(fi, cycle int, net func(id int) uint64)) DiffConfig {
	cfg.trace = fn
	return cfg
}

// Vals exposes every net word of the last evaluated cycle.
func (s *Sim) Vals() []uint64 { return s.vals }
