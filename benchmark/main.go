// Command benchmark is the repository's benchmark: it runs one workload of
// the STFW exchange stack (SpMV, CG or pattern churn over K=64 ranks),
// checks every step's outputs, and prints its metrics.
//
// Load shape: the K ranks are goroutines of this process, with GOMAXPROCS
// pinned to the core count. One driver goroutine runs a closed loop with
// one step outstanding, the bulk-synchronous shape of an iterative solver;
// a step is one world-wide operation, defined per workload. Wire
// transports bind loopback sockets only.
//
// With --trace 0 it prints the end-to-end metrics, measured untraced; with
// --trace 1 it prints the per-layer metrics of a separate traced run. The
// last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. Run it through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload spmv-hotspot-chan --seed 1 --seconds 10 --trace 0
//
// Without --workload it runs every workload in turn.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"
)

// serialReps is how many times the single-threaded reference runs; its
// time is the median.
const serialReps = 5

// hostInfo fingerprints the machine and build a result came from.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Network    string `json:"network"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full record of one run, written beside the printed
// metrics.
type report struct {
	Workload  string               `json:"workload"`
	Why       string               `json:"why"`
	Transport string               `json:"transport"`
	Seed      int64                `json:"seed"`
	Seconds   int                  `json:"seconds"`
	Trace     int                  `json:"trace"`
	Load      string               `json:"load"`
	Host      hostInfo             `json:"host"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	ErrorRate float64              `json:"error_rate"`
	FirstErr  string               `json:"first_error,omitempty"`
	Metrics   map[string]metricOut `json:"metrics"`
	// StepTail is the end-to-end run's highest percentile with at least
	// ten samples beyond it; absent when the run has too few steps.
	StepTail      *tailOut `json:"step_tail,omitempty"`
	RefSerialStep float64  `json:"ref_serial_step_ms"`
}

type tailOut struct {
	Percentile float64 `json:"percentile"`
	ValueMs    float64 `json:"value_ms"`
	Samples    int     `json:"samples"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "all", "workload name, or all to run every workload, each in its own process")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "step time to measure, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	rev := flag.String("rev", "unknown", "source revision measured")
	out := flag.String("out", "", "directory for the full report and the traced spans; empty writes none")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, *rev, *out)
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	goruntime.GOMAXPROCS(goruntime.NumCPU())

	rep := &report{
		Workload: wl.name, Why: wl.why, Transport: wl.transport.String(),
		Seed: *seed, Seconds: *seconds, Trace: *trace,
		Load: fmt.Sprintf("K=%d ranks as goroutines of one process; closed loop, one step outstanding", K),
		Host: hostInfo{
			NumCPU:     goruntime.NumCPU(),
			GOMAXPROCS: goruntime.GOMAXPROCS(0),
			CPUModel:   cpuModel(),
			GoVersion:  goruntime.Version(),
			GitRev:     *rev,
			Network:    "loopback only: every wire transport binds 127.0.0.1, no traffic leaves the host",
		},
		Metrics: map[string]metricOut{},
	}
	in, err := wl.generate(*seed)
	if err != nil {
		return fmt.Errorf("generate inputs: %w", err)
	}
	refTimes := make([]float64, serialReps)
	for i := range refTimes {
		d, err := in.serial()
		if err != nil {
			return fmt.Errorf("serial reference: %w", err)
		}
		refTimes[i] = ms(d)
	}
	rep.RefSerialStep = median(refTimes)
	dur := time.Duration(*seconds) * time.Second

	var defs []metricDef
	values := map[string]float64{}
	var tr *tracer
	if *trace == 0 {
		defs = endToEnd
		st, _, setup, err := setupMedian(in, setupOpts{})
		if err != nil {
			return err
		}
		w, err := runWindow(st, dur, nil, nil, false)
		st.close()
		if err != nil {
			return err
		}
		rep.Attempted, rep.Failed = w.attempted, w.failed
		if w.firstErr != nil {
			rep.FirstErr = w.firstErr.Error()
		}
		n := float64(max(len(w.lat), 1))
		values["step_p50_ms"] = w.p50()
		values["steps_per_s"] = w.stepsPerSec()
		values["setup_s"] = setup.Seconds()
		values["cpu_ms_per_step"] = ms(w.cpuTime) / n
		values["peak_rss_mb"] = peakRSSMB()
		if pct, v, samples, ok := w.tail(); ok {
			rep.StepTail = &tailOut{Percentile: pct, ValueMs: v, Samples: samples}
		}
	} else {
		defs = perLayer
		lr, err := measureLayers(wl, in, rep.RefSerialStep, dur)
		if err != nil {
			return err
		}
		values = lr.values
		rep.Attempted, rep.Failed = lr.attempted, lr.failed
		if lr.firstErr != nil {
			rep.FirstErr = lr.firstErr.Error()
		}
		tr = lr.tracer
	}
	rep.ErrorRate = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	for _, d := range defs {
		rep.Metrics[d.name] = metricOut{Value: values[d.name], Unit: d.unit}
	}

	printReport(rep, defs)
	if *out != "" {
		if err := writeFiles(*out, rep, tr); err != nil {
			return err
		}
	}
	line, err := json.Marshal(summary{Correct: rep.Failed == 0 && rep.Attempted > 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printReport(rep *report, defs []metricDef) {
	fmt.Printf("workload %s (seed %d, %ds, trace %d): %s\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Why)
	fmt.Printf("transport: %s\nload: %s\n", rep.Transport, rep.Load)
	h := rep.Host
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d cpu=%q %s rev=%s\nnetwork: %s\n", h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.GitRev, h.Network)
	for _, d := range defs {
		fmt.Printf("  %-36s %14.6g %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	if rep.Trace == 0 {
		if t := rep.StepTail; t != nil {
			fmt.Printf("  %-36s %14.6g ms (p%.2f of %d steps)\n", "step_tail_ms", t.ValueMs, t.Percentile, t.Samples)
		} else {
			fmt.Printf("  %-36s %14s (too few steps for a percentile above the median)\n", "step_tail_ms", "-")
		}
		fmt.Printf("  %-36s %14.6g ms\n", "ref.serial_step_ms", rep.RefSerialStep)
	}
	fmt.Printf("  %-36s %14.6g (%d of %d steps failed)\n", "error_rate", rep.ErrorRate, rep.Failed, rep.Attempted)
	if rep.FirstErr != "" {
		fmt.Printf("first error: %s\n", rep.FirstErr)
	}
}

// runAll runs every workload in a child process of its own, so each
// reports its own peak RSS, and ends with one summary line whose metrics
// are keyed workload/metric.
func runAll(seed int64, seconds, trace int, rev, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	all := summary{Correct: true, Metrics: map[string]metricOut{}}
	for _, wl := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(exe, "--workload", wl.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--rev", rev, "--out", out)
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var s summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
			return fmt.Errorf("%s: reading its summary: %w", wl.name, err)
		}
		all.Correct = all.Correct && s.Correct
		all.Attempted += s.Attempted
		all.Failed += s.Failed
		for k, v := range s.Metrics {
			all.Metrics[wl.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeFiles writes the full report and, for a traced run, the raw spans
// of its first steps.
func writeFiles(dir string, rep *report, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rep.Workload, rep.Seed, rep.Trace))
	if err := writeJSON(base+".json", rep); err != nil {
		return err
	}
	if tr != nil {
		return writeJSON(base+".spans.json", tr.file())
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
