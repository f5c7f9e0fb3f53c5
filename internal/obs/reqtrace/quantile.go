package reqtrace

import (
	"sort"
	"sync"
	"time"

	"darklight/internal/splitmix"
)

// Window estimates quantiles over a rolling time window using a ring of
// time slices, each holding a bounded reservoir of observations. The
// window "forgets" by slice: when the clock enters a new slice epoch, the
// oldest slice's reservoir is discarded wholesale, so a latency spike
// ages out of the p99 within one window length instead of polluting a
// process-lifetime histogram forever.
//
// Per-slice reservoirs keep memory bounded under load: once a slice has
// Cap observations, new arrivals replace uniformly random slots
// (classic reservoir sampling), so the slice stays an unbiased sample of
// its interval. All times are injected — the Window never reads a clock.
type Window struct {
	mu     sync.Mutex
	slice  time.Duration
	slices []windowSlice
	capN   int
	rng    uint64
}

type windowSlice struct {
	epoch int64 // now.UnixNano() / slice duration; identifies the interval
	seen  int   // observations offered to this slice
	vals  []float64
}

// NewWindow builds a quantile window covering the given duration split
// into slices reservoirs of cap observations each. Panics on
// non-positive arguments — window shape is a programming contract.
func NewWindow(window time.Duration, slices, capacity int, seed uint64) *Window {
	if window <= 0 || slices <= 0 || capacity <= 0 {
		panic("reqtrace: NewWindow needs positive window, slices, and capacity")
	}
	if seed == 0 {
		seed = DefaultSeed
	}
	w := &Window{
		slice:  window / time.Duration(slices),
		slices: make([]windowSlice, slices),
		capN:   capacity,
		rng:    seed,
	}
	for i := range w.slices {
		w.slices[i].epoch = -1
		w.slices[i].vals = make([]float64, 0, capacity)
	}
	return w
}

// Observe records one value at the injected time now.
func (w *Window) Observe(now time.Time, v float64) {
	epoch := now.UnixNano() / int64(w.slice)
	w.mu.Lock()
	defer w.mu.Unlock()
	s := &w.slices[epoch%int64(len(w.slices))]
	if s.epoch != epoch {
		s.epoch = epoch
		s.seen = 0
		s.vals = s.vals[:0]
	}
	s.seen++
	if len(s.vals) < w.capN {
		s.vals = append(s.vals, v)
		return
	}
	if j := int(w.rand64() % uint64(s.seen)); j < w.capN {
		s.vals[j] = v
	}
}

// Quantile returns the q-quantile (nearest-rank, q in [0, 1]) over the
// observations still inside the window at the injected time now. Returns
// 0 when the window is empty — gauges read a quiet server as zero, not
// NaN.
func (w *Window) Quantile(now time.Time, q float64) float64 {
	epoch := now.UnixNano() / int64(w.slice)
	oldest := epoch - int64(len(w.slices)) + 1
	w.mu.Lock()
	var all []float64
	for i := range w.slices {
		if s := &w.slices[i]; s.epoch >= oldest && s.epoch <= epoch {
			all = append(all, s.vals...)
		}
	}
	w.mu.Unlock()
	if len(all) == 0 {
		return 0
	}
	sort.Float64s(all)
	if q <= 0 {
		return all[0]
	}
	idx := int(q*float64(len(all))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(all) {
		idx = len(all) - 1
	}
	return all[idx]
}

// rand64 advances the window's splitmix64 state; callers hold w.mu.
func (w *Window) rand64() uint64 {
	z := splitmix.Mix(w.rng)
	w.rng += splitmix.Gamma
	return z
}
