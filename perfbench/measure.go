package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// measureSetup runs setup reps times and returns the last result and the
// median duration, so one slow set-up does not move setup_s. Every earlier
// result is released with teardown.
func measureSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 && teardown != nil {
			teardown(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, quantile(secs, 0.5), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// rssEvery is the resident-set sampling period of the measurement window.
const rssEvery = 10 * time.Millisecond

// rssSampler samples the process's resident set while a window runs.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
}

// startRSS starts sampling; stop it with p95.
func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, ok := residentMB(); ok {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// p95 stops the sampler and returns the 95th percentile of its samples.
// The absolute peak (VmHWM) moved by up to 30% between runs on the same
// inputs, with where garbage collections happened to fall; the 95th
// percentile of the sampled resident set does not.
func (s *rssSampler) p95() float64 {
	close(s.stop)
	<-s.done
	return quantile(s.samples, 0.95)
}

// residentMB reads the current resident set size from /proc/self/statm.
func residentMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// digest hashes a sequence of printed fields into a short hex string.
func digest(fields ...any) string {
	h := fnv.New64a()
	for _, f := range fields {
		fmt.Fprintf(h, "%v\x00", f)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// recordExact stores a count that must repeat bit-for-bit. A unit seen
// twice in one run (closed loops cycle through their inputs) must give the
// same count both times.
func (o *outcome) recordExact(key string, v int64) {
	if o.Exact == nil {
		o.Exact = map[string]int64{}
	}
	if prev, ok := o.Exact[key]; ok && prev != v {
		o.fail("determinism: %s was %d, repeat gave %d", key, prev, v)
		return
	}
	o.Exact[key] = v
}

// checkExact compares the run's exact counts with those an earlier run of
// the same binary recorded for the same inputs, then records them. A
// mismatch is a determinism bug: it fails the run rather than being
// averaged away.
func checkExact(stateDir, workload string, out *outcome) error {
	if len(out.Exact) == 0 {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return nil
	}
	h := fnv.New64a()
	h.Write(bin)
	path := filepath.Join(stateDir, fmt.Sprintf("exact-%s-%s-%016x.json", workload, out.ExactScope, h.Sum64()))
	if prev, err := os.ReadFile(path); err == nil {
		var want map[string]int64
		if err := json.Unmarshal(prev, &want); err == nil {
			var diffs []string
			for k, v := range out.Exact {
				if w, ok := want[k]; ok && w != v {
					diffs = append(diffs, fmt.Sprintf("%s: earlier run %d, this run %d", k, w, v))
				}
			}
			for k, v := range want {
				if _, ok := out.Exact[k]; !ok {
					out.Exact[k] = v // keep units this run did not reach
				}
			}
			if len(diffs) > 0 {
				sort.Strings(diffs)
				return fmt.Errorf("determinism bug: %s", strings.Join(diffs, "; "))
			}
		}
	}
	b, err := json.Marshal(out.Exact)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// passTimer collects a closed loop's unit latencies by unit type. The loop
// visits its unit types in a fixed cycle until the window closes, so some
// types are timed twice and others once; weighing every type once, by its
// mean, keeps that cut-off from moving the figures.
type passTimer map[string][]time.Duration

func (p passTimer) add(unitType string, d time.Duration) { p[unitType] = append(p[unitType], d) }

// pass returns the time of one full pass: the sum of every unit type's
// mean latency.
func (p passTimer) pass() time.Duration {
	var pass time.Duration
	for _, ds := range p {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		pass += sum / time.Duration(len(ds))
	}
	return pass
}

// endToEndClosed fills the end-to-end metrics of a closed loop. The job
// its caller waits for is the whole pass (the table, the sweep): ops_per_s
// is the pass's units per second, and the latency is the pass time; the
// unit types differ tenfold in size, so a per-unit percentile would mostly
// report which units a seed's inputs contain.
func endToEndClosed(out *outcome, setupS, rssMB float64, lat passTimer) {
	m := out.Metrics
	passMS := float64(lat.pass()) / float64(time.Millisecond)
	m["setup_s"] = setupS
	m["ops_per_s"] = ratio(float64(len(lat)), passMS/1000)
	m["latency_p50_ms"] = passMS
	m["slo_ok_ratio"] = ratio(float64(out.Attempted-out.Failed), float64(out.Attempted))
	m["rss_p95_mb"] = rssMB
}

// tracedClosed fills the benchmark's own metrics of a traced closed loop.
func tracedClosed(out *outcome, lat passTimer) {
	m := out.Metrics
	passMS := float64(lat.pass()) / float64(time.Millisecond)
	m["bench.failed_ratio"] = ratio(float64(out.Failed), float64(out.Attempted))
	m["trace.ops_per_s"] = ratio(float64(len(lat)), passMS/1000)
	m["trace.latency_p50_ms"] = passMS
}
