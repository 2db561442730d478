package atpg

import "repro/internal/gates"

// Lane plumbing shared by the ATPG random phase and the BIST evaluator.
// Every net of the logic simulator carries a 64-bit word — one bit per
// parallel pattern lane — so a vector sequence can pack up to 64
// independent stimulus sequences (lane l of every word forms sequence l),
// the classic PPSFP (parallel-pattern single-fault propagation)
// transform. The helpers here build, narrow and widen such sequences.

// xorshift64 is the stimulus stream generator: one independent instance
// per lane. The recurrence (and the default seed below) are exactly the
// generator the original single-session BIST evaluator used, so lane 0
// of a multi-lane session replays the legacy session bit-for-bit.
type xorshift64 uint64

func (s *xorshift64) next() uint64 {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = xorshift64(x)
	return x
}

// defaultBISTSeed seeds lane 0's stimulus stream; the golden-ratio
// constant predates the lane-parallel evaluator and is kept so single-
// lane sessions reproduce the historical coverage trajectories.
const defaultBISTSeed = 0x9E3779B97F4A7C15

// bistStimulus generates the per-cycle PI words driving `lanes`
// independent pseudorandom sessions, one row per call: one distinct
// xorshift64 stream per lane, lane 0 seeded with `seed` directly (the
// legacy stream) and lanes 1.. with SplitMix64-derived seeds. Every stream
// is consumed once per (cycle, input) — including the forced input — so
// lane 0's bit sequence is aligned with the single-stream evaluator of old.
// forceInput (the bist_en index) is driven all-ones in every lane. The
// streams carry over from row to row, so a session of any length is
// generated without materialising it.
type bistStimulus struct {
	streams    []xorshift64
	forceInput int
}

func newBISTStimulus(lanes int, seed uint64, forceInput int) *bistStimulus {
	streams := make([]xorshift64, lanes)
	streams[0] = xorshift64(seed)
	for l := 1; l < lanes; l++ {
		s := gates.SplitMix64(seed + uint64(l))
		if s == 0 {
			s = seed // xorshift64 must never be seeded with 0
		}
		streams[l] = xorshift64(s)
	}
	return &bistStimulus{streams: streams, forceInput: forceInput}
}

// fill writes the next cycle's PI words into row.
func (b *bistStimulus) fill(row []uint64) {
	for i := range row {
		var w uint64
		for l := range b.streams {
			if b.streams[l].next()&1 != 0 {
				w |= 1 << uint(l)
			}
		}
		row[i] = w
	}
	if b.forceInput >= 0 {
		row[b.forceInput] = ^uint64(0)
	}
}

// wideVectors fills a cycles×nIn vector block where every lane of every
// word draws an independent random bit from one full-width source — the
// 64-sessions-per-word stimulus of the campaign's random phase. The
// source is consumed once per (cycle, input), in cycle-major order.
func wideVectors(cycles, nIn int, src func() uint64) [][]uint64 {
	vec := make([][]uint64, cycles)
	for t := range vec {
		v := make([]uint64, nIn)
		for i := range v {
			v[i] = src()
		}
		vec[t] = v
	}
	return vec
}

// extractLane narrows a 64-lane vector sequence to the single pattern
// lane `lane`: the returned sequence has one word per primary input per
// cycle with only bit 0 meaningful, the format Result.TestSet retains.
func extractLane(vectors [][]uint64, lane int) [][]uint64 {
	out := make([][]uint64, len(vectors))
	for t, v := range vectors {
		row := make([]uint64, len(v))
		for i, w := range v {
			row[i] = (w >> uint(lane)) & 1
		}
		out[t] = row
	}
	return out
}

// widenLane replicates a single-lane sequence (only bit 0 meaningful,
// the extractLane format) across all 64 lanes, the form the simulator
// applies. extractLane(widenLane(seq), l) == seq for every lane l.
func widenLane(seq [][]uint64) [][]uint64 {
	out := make([][]uint64, len(seq))
	for t, row := range seq {
		w := make([]uint64, len(row))
		for i, b := range row {
			if b&1 != 0 {
				w[i] = ^uint64(0)
			}
		}
		out[t] = w
	}
	return out
}
