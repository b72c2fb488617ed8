package main

import (
	"fmt"
	"io"
	"time"
)

// The machine is a VM on a shared host, and its speed drifts: within a
// run, 20 ms windows of one closed loop differ by a factor of 1.5, and in
// slow periods of the host, which last minutes, the same code runs up to
// twice as slow. Interference from the neighbours only ever adds time, so
// each time metric is read where the run shows least of it:
//
//   - items_per_s and the CPU per item come from short windows of the
//     closed loop, at the fast decile of the windows;
//   - a latency quantile is taken per window of latWindow consecutive
//     samples (open-loop requests, or LSM ops), at the fast decile of the
//     windows, so each window's p95 still has ten samples beyond it;
//   - setup_s is the median of repeated set-ups.

const (
	windowEvery = 20 * time.Millisecond
	fastQ       = 0.1 // share of windows at least as fast as the one reported
	latWindow   = 200 // open-loop requests per latency window
	setupBudget = 1.5 // seconds of repeated set-up beyond the minimum count
	maxSetups   = 9
)

// windows records, at each window edge of a loop, the items completed so
// far and the CPU time of the process doing the work, as read reports it.
type windows struct {
	read  func() (time.Duration, error)
	at    []time.Time
	items []int64
	cpu   []time.Duration
	err   error
}

// mark records a window edge after items completed items.
func (w *windows) mark(items int64) {
	cpu, err := w.read()
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	w.at = append(w.at, time.Now())
	w.items = append(w.items, items)
	w.cpu = append(w.cpu, cpu)
}

// series returns per window the items/s and the CPU microseconds per 1000
// items. A trailing window shorter than half the others is left out.
func (w *windows) series() (rates, cpus []float64) {
	for k := 1; k < len(w.at); k++ {
		dt := w.at[k].Sub(w.at[k-1])
		if dt < windowEvery/2 {
			continue
		}
		di := float64(w.items[k] - w.items[k-1])
		rates = append(rates, di/dt.Seconds())
		if di > 0 {
			cpus = append(cpus, float64((w.cpu[k]-w.cpu[k-1]).Nanoseconds())/1e3/(di/1000))
		}
	}
	return rates, cpus
}

// fast returns the items/s and the CPU per 1000 items of the loop at the
// fast decile of its windows, and prints both series' deciles under label.
func (w *windows) fast(out io.Writer, label string) (rate, cpuPerK float64) {
	rates, cpus := w.series()
	fmt.Fprintf(out, "%s: %d windows of %s; items/s p10 %.0f p50 %.0f p90 %.0f; cpu us/kitem p10 %.1f p50 %.1f p90 %.1f\n",
		label, len(rates), windowEvery,
		quantile(rates, 0.1), quantile(rates, 0.5), quantile(rates, 0.9),
		quantile(cpus, 0.1), quantile(cpus, 0.5), quantile(cpus, 0.9))
	return quantile(rates, 1-fastQ), quantile(cpus, fastQ)
}

// windowQuantile returns the q-quantile of the latencies lat at the fast
// decile of windows of size consecutive samples: each window's q-quantile
// is taken, and the one at the fast decile of those reported. A trailing
// window shorter than half of size is left out, unless it is the only one.
func windowQuantile(lat []float64, size int, q float64) float64 {
	var per []float64
	for lo := 0; lo < len(lat); lo += size {
		hi := min(len(lat), lo+size)
		if hi-lo < size/2 && lo > 0 {
			break
		}
		per = append(per, quantile(lat[lo:hi], q))
	}
	return quantile(per, fastQ)
}

// repeatSetup runs reset then a timed setup at least minRuns times and,
// while the timed total stays under setupBudget, up to maxSetups times.
// It returns each setup's duration in seconds.
func repeatSetup(minRuns int, reset, setup func() error) ([]float64, error) {
	var ds []float64
	total := 0.0
	for len(ds) < minRuns || (total < setupBudget && len(ds) < maxSetups) {
		if err := reset(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		ds = append(ds, d)
		total += d
	}
	return ds, nil
}
