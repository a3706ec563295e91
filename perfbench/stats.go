package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// tailFloor is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the "tail" is a handful of outliers.
const tailFloor = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs, and
// false when fewer than tailFloor samples lie beyond it. The median needs
// no floor; call median for it.
func percentile(xs []float64, p float64) (float64, bool) {
	if float64(len(xs))*(1-p) < tailFloor {
		return 0, false
	}
	return rank(xs, p), true
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the nearest-rank median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return rank(xs, 0.5)
}

func rank(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// peakRSSMB is the process's resident-set high-water mark in MB
// (getrusage reports it in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// tracer records the host duration of calls into each layer's public
// functions, keyed by span name. When off, start and end cost a branch,
// so the untraced run measures the same loop without them.
type tracer struct {
	on   bool
	mu   sync.Mutex
	durs map[string][]time.Duration
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, durs: map[string][]time.Duration{}}
}

func (t *tracer) start() time.Time {
	if !t.on {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) end(name string, t0 time.Time) {
	if !t.on {
		return
	}
	d := time.Since(t0)
	t.mu.Lock()
	t.durs[name] = append(t.durs[name], d)
	t.mu.Unlock()
}

// medianUS is the median duration of the named span in microseconds
// (0 when the span never ran).
func (t *tracer) medianUS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	xs := make([]float64, len(t.durs[name]))
	for i, d := range t.durs[name] {
		xs[i] = float64(d.Nanoseconds()) / 1e3
	}
	return median(xs)
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
