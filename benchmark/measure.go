package main

import (
	"errors"
	"fmt"
	"math"
	goruntime "runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its world up; setup_s and the
// setup.* phases are the medians. The last world is the one measured.
// Set-ups take tens of milliseconds, so the repetitions are cheap.
const setupReps = 11

// setupMedian sets the workload up setupReps times, closing every world
// but the last, and returns the last one with the per-phase medians.
func setupMedian(in instance, o setupOpts) (stepper, phases, time.Duration, error) {
	var all []phases
	var st stepper
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		// Start each set-up without garbage left by the previous one.
		goruntime.GC()
		var ph phases
		var err error
		st, err = in.setup(o, &ph)
		if err != nil {
			return nil, phases{}, 0, fmt.Errorf("set-up: %w", err)
		}
		all = append(all, ph)
	}
	med := func(f func(phases) time.Duration) time.Duration {
		v := make([]float64, len(all))
		for i, ph := range all {
			v[i] = float64(f(ph))
		}
		return time.Duration(median(v))
	}
	return st, phases{
		partition: med(func(p phases) time.Duration { return p.partition }),
		pattern:   med(func(p phases) time.Duration { return p.pattern }),
		world:     med(func(p phases) time.Duration { return p.world }),
		session:   med(func(p phases) time.Duration { return p.session }),
		learn:     med(func(p phases) time.Duration { return p.learn }),
	}, med(phases.total), nil
}

// window is what one closed-loop measurement window observed.
type window struct {
	lat       []float64 // step latencies, ms, of steps that completed
	attempted int
	failed    int
	firstErr  error
	stepTime  time.Duration // sum of step latencies
	cpuTime   time.Duration // process user+sys CPU inside steps
	steps     []stepAgg     // traced windows: one reduction per step
	// With procStats: heap allocations and GC cycles inside steps, and the
	// heap and goroutine count at the end of the window.
	mallocs, gcs uint64
	heapInuse    uint64
	goroutines   int
}

// runWindow drives the closed loop: one step outstanding, the next issued
// when the previous returns, for the given duration of step time. Output
// checks (and, traced, span reduction) run between steps, outside the
// timings. A step whose world-wide operation fails ends the window: the
// world's state is unknown afterwards.
func runWindow(st stepper, dur time.Duration, tr *tracer, red *reducer, procStats bool) (*window, error) {
	w := &window{}
	goruntime.GC()
	var m0, m1 goruntime.MemStats
	var spans [][]span
	var notes [][]note
	if tr != nil {
		spans, notes = make([][]span, K), make([][]note, K)
		spans, notes = tr.take(-1, 0, 0, spans, notes)
	}
	for w.stepTime < dur {
		if procStats {
			goruntime.ReadMemStats(&m0)
		}
		c0 := cpuTime()
		t0 := time.Now()
		s0 := tr.now()
		err := st.step()
		s1 := tr.now()
		d := time.Since(t0)
		w.cpuTime += cpuTime() - c0
		if procStats {
			goruntime.ReadMemStats(&m1)
			w.mallocs += m1.Mallocs - m0.Mallocs
			w.gcs += uint64(m1.NumGC - m0.NumGC)
		}
		w.attempted++
		if errors.Is(err, errStuck) {
			return nil, err
		}
		if err != nil {
			w.failed++
			w.firstErr = fmt.Errorf("step %d: %w", w.attempted, err)
			break
		}
		w.stepTime += d
		w.lat = append(w.lat, float64(d)/1e6)
		if err := st.check(); err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = fmt.Errorf("step %d output check: %w", w.attempted, err)
			}
		}
		if tr != nil {
			spans, notes = tr.take(w.attempted-1, s0, s1, spans, notes)
			w.steps = append(w.steps, red.reduce(s0, s1, spans, notes))
		}
	}
	w.goroutines = goruntime.NumGoroutine()
	w.heapInuse = m1.HeapInuse
	return w, nil
}

func (w *window) p50() float64 { return median(w.lat) }

// stepsPerSec is completed steps over the time spent in steps: a mean, so
// stalls the median hides show here.
func (w *window) stepsPerSec() float64 {
	if w.stepTime == 0 {
		return 0
	}
	return float64(len(w.lat)) / w.stepTime.Seconds()
}

// tail returns the highest percentile with at least ten samples beyond
// it, its value and the sample count; ok is false when the window has too
// few steps for any percentile above the median.
func (w *window) tail() (pct, ms float64, n int, ok bool) {
	n = len(w.lat)
	const beyond = 10
	if n < 2*beyond+2 {
		return 0, 0, n, false
	}
	s := append([]float64(nil), w.lat...)
	sort.Float64s(s)
	return 100 * (1 - float64(beyond)/float64(n)), s[n-beyond-1], n, true
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func maxOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		m = max(m, x)
	}
	return m
}
