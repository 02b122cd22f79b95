package main

import (
	"fmt"
	"sort"
	"time"

	"stfw/internal/core"
	"stfw/internal/metrics"
	"stfw/internal/netsim"
	"stfw/internal/runtime"
	"stfw/internal/telemetry"
)

// metricDef names a metric, its unit and which direction is better. The
// two tables are the benchmark's contract; BENCHMARK.json lists the same
// metrics (a self-test keeps them in step).
type metricDef struct{ name, unit, better string }

// endToEnd metrics are measured with tracing off. step_tail_ms and
// error_rate are reported beside them but kept out of this table: the tail
// needs more steps than a CG run completes, and the error rate is zero on a
// correct program (the attempted/failed counts carry it).
var endToEnd = []metricDef{
	{"step_p50_ms", "ms", "lower"},
	{"steps_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"cpu_ms_per_step", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer metrics come from the traced run. A metric of a layer a
// workload does not use is not set and reads 0.
var perLayer = []metricDef{
	{"setup.partition_ms", "ms", "lower"},
	{"setup.pattern_ms", "ms", "lower"},
	{"setup.world_ms", "ms", "lower"},
	{"setup.session_ms", "ms", "lower"},
	{"core.learn_ms", "ms", "lower"},
	{"spmv.gather_ms", "ms", "lower"},
	{"spmv.kernel_ms", "ms", "lower"},
	{"spmv.exchange_ms", "ms", "lower"},
	{"spmv.exchange_skew_ms", "ms", "lower"},
	{"transport.send_ms", "ms", "lower"},
	{"transport.recv_wait_ms", "ms", "lower"},
	{"transport.barrier_wait_ms", "ms", "lower"},
	{"transport.frames_per_step", "count", "lower"},
	{"transport.payload_bytes_per_step", "B", "lower"},
	{"udpnet.pkts_per_step", "count", "lower"},
	{"udpnet.resends_per_step", "count", "lower"},
	{"udpnet.useful_pkt_frac", "ratio", "higher"},
	{"udpnet.window_stalls_per_step", "count", "lower"},
	{"udpnet.acks_per_step", "count", "lower"},
	{"udpnet.ack_suppressed_frac", "ratio", "higher"},
	{"udpnet.srtt_us", "us", "lower"},
	{"udpnet.backlog_hw", "count", "lower"},
	{"hier.outer_frame_frac", "ratio", "lower"},
	{"core.mmax", "count", "lower"},
	{"core.mavg", "count", "lower"},
	{"core.vavg_words", "words", "lower"},
	{"core.replay_ms", "ms", "lower"},
	{"core.patch_ms", "ms", "lower"},
	{"core.patch_compiled_ms", "ms", "lower"},
	{"core.dirty_stages", "count", "lower"},
	{"dynamic.discover_ms", "ms", "lower"},
	{"dynamic.census_frames_per_step", "count", "lower"},
	{"iterative.iters", "count", "lower"},
	{"iterative.compute_ms_per_iter", "ms", "lower"},
	{"collectives.allreduce_ms_per_iter", "ms", "lower"},
	{"collectives.frames_per_iter", "count", "lower"},
	{"proc.allocs_per_step", "count", "lower"},
	{"proc.gc_per_1k_steps", "count", "lower"},
	{"proc.heap_inuse_mb", "MB", "lower"},
	{"proc.goroutines", "count", "lower"},
	{"telemetry.on_over_off", "ratio", "lower"},
	{"netsim.pred_over_meas", "ratio", "higher"},
	{"trace.explained_frac", "ratio", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"ref.serial_step_ms", "ms", "lower"},
}

// stepAgg is one traced step reduced over its ranks. Times are ns.
type stepAgg struct {
	ns                     float64
	gather, exchange       float64 // Session.Timings deltas, median over ranks
	kernel, exchangeSkew   float64 // kernel median; exchange max minus median
	send, recv, barrier    float64 // time in each transport call, mean over ranks
	frames, bytes          [numClasses]float64
	layer                  [numKinds]float64 // summed span time per rank, median over ranks
	iters                  float64
	cgSelf, collective     float64   // per rank, median over ranks
	dirtyStages, explained float64   // dirty stages summed over ranks; covered share, mean over ranks
	stageBusiest           []float64 // per exchange stage, the busiest rank's transport time
}

type reducer struct{ stages int }

func (red *reducer) reduce(s0, s1 int64, spans [][]span, notes [][]note) stepAgg {
	a := stepAgg{ns: float64(s1 - s0), stageBusiest: make([]float64, red.stages)}
	k := len(spans)
	col := func() []float64 { return make([]float64, k) }
	send, recv, barrier, cgSelf, coll, covered := col(), col(), col(), col(), col(), col()
	var layer [numKinds][]float64
	for i := range layer {
		layer[i] = col()
	}
	var byNote [numNotes][]float64
	stage := make([]float64, red.stages)
	var layerIv, transIv [][2]int64
	for r := range spans {
		layerIv, transIv = layerIv[:0], transIv[:0]
		clear(stage)
		for _, s := range spans[r] {
			d := float64(s.end - s.start)
			iv := [2]int64{s.start, s.end}
			if !s.kind.transport() {
				layer[s.kind][r] += d
				layerIv = append(layerIv, iv)
				continue
			}
			transIv = append(transIv, iv)
			switch s.kind {
			case kSend:
				send[r] += d
				a.frames[s.class]++
				a.bytes[s.class] += float64(s.bytes)
			case kRecv:
				recv[r] += d
			case kBarrier:
				barrier[r] += d
				continue
			}
			if s.class == clsCollective {
				coll[r] += d
			}
			if s.class == clsStage && int(s.stage) < red.stages {
				stage[s.stage] += d
			}
		}
		for d, v := range stage {
			a.stageBusiest[d] = max(a.stageBusiest[d], v)
		}
		covered[r] = float64(unionLen(layerIv, s0, s1))
		if layer[kCG][r] > 0 {
			cgSelf[r] = layer[kCG][r] - float64(unionLen(transIv, s0, s1))
		}
		for _, n := range notes[r] {
			byNote[n.key] = append(byNote[n.key], n.value)
		}
	}
	a.gather, a.exchange, a.kernel = median(byNote[nGather]), median(byNote[nExchange]), median(byNote[nKernel])
	a.exchangeSkew = maxOf(byNote[nExchange]) - a.exchange
	a.send, a.recv, a.barrier = mean(send), mean(recv), mean(barrier)
	for i := range layer {
		a.layer[i] = median(layer[i])
	}
	a.iters = maxOf(byNote[nIters])
	a.cgSelf, a.collective = median(cgSelf), median(coll)
	for _, v := range byNote[nDirtyStages] {
		a.dirtyStages += v
	}
	if a.ns > 0 {
		a.explained = mean(covered) / a.ns
	}
	return a
}

// unionLen is the length of the union of the intervals, clipped to
// [lo, hi]. It sorts ivs in place.
func unionLen(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := [2]int64{-1, -1}
	flush := func() {
		s, e := max(cur[0], lo), min(cur[1], hi)
		if e > s {
			total += e - s
		}
	}
	for _, iv := range ivs {
		if iv[0] > cur[1] {
			flush()
			cur = iv
		} else if iv[1] > cur[1] {
			cur[1] = iv[1]
		}
	}
	flush()
	return total
}

// linkTotals folds every rank's per-link wire counters into one.
func linkTotals(cs []runtime.Comm) runtime.LinkStats {
	var t runtime.LinkStats
	for _, c := range cs {
		for _, l := range runtime.LinkStatsOf(c) {
			t.Add(l)
		}
	}
	return t
}

// layerRun is everything the traced run measured, reduced to metrics.
type layerRun struct {
	values    map[string]float64
	attempted int
	failed    int
	firstErr  error
	tracer    *tracer
}

// measureLayers is the --trace 1 run: an untraced window (the reference
// for tracing overhead, and the process counters), a traced window (the
// spans and wire counters), and on spmv-hotspot-chan a window with the
// program's own telemetry on. The measuring time is split between them.
func measureLayers(wl workload, in instance, refMs float64, seconds time.Duration) (*layerRun, error) {
	withTelemetry := wl.name == "spmv-hotspot-chan"
	part := seconds / 2
	if withTelemetry {
		part = seconds / 3
	}
	v := map[string]float64{"ref.serial_step_ms": refMs}
	run := &layerRun{values: v}
	tally := func(w *window) {
		run.attempted += w.attempted
		run.failed += w.failed
		if run.firstErr == nil {
			run.firstErr = w.firstErr
		}
	}
	stages := in.topology().N()

	st, ph, _, err := setupMedian(in, setupOpts{})
	if err != nil {
		return nil, err
	}
	v["setup.partition_ms"] = ms(ph.partition)
	v["setup.pattern_ms"] = ms(ph.pattern)
	v["setup.world_ms"] = ms(ph.world)
	v["setup.session_ms"] = ms(ph.session)
	v["core.learn_ms"] = ms(ph.learn)
	plain, err := runWindow(st, part, nil, nil, true)
	st.close()
	if err != nil {
		return nil, err
	}
	tally(plain)
	n := float64(max(len(plain.lat), 1))
	v["proc.allocs_per_step"] = float64(plain.mallocs) / n
	v["proc.gc_per_1k_steps"] = float64(plain.gcs) * 1000 / n
	v["proc.heap_inuse_mb"] = float64(plain.heapInuse) / (1 << 20)
	v["proc.goroutines"] = float64(plain.goroutines)

	plan, sends, err := in.plan()
	if err != nil {
		return nil, err
	}
	sum, err := metrics.Summarize("STFW", plan, sends)
	if err != nil {
		return nil, err
	}
	v["core.mmax"], v["core.mavg"], v["core.vavg_words"] = sum.MMax, sum.MAvg, sum.VAvg

	tr := newTracer(K, stages)
	st, err = in.setup(setupOpts{tr: tr}, new(phases))
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	link0 := linkTotals(st.comms())
	traced, err := runWindow(st, part, tr, &reducer{stages: stages}, false)
	link1 := linkTotals(st.comms())
	st.close()
	if err != nil {
		return nil, err
	}
	tally(traced)
	run.tracer = tr
	tracedMetrics(v, traced, link0, link1, wl.transport == overHier)
	v["trace.overhead_ratio"] = ratio(traced.p50(), plain.p50())
	// The model is calibrated from link round trips, so it is priced only
	// where every frame crosses the wire.
	if wl.transport == overUDP {
		if err := netsimMetric(v, traced, plan, link1); err != nil {
			return nil, err
		}
	}

	if withTelemetry {
		reg := telemetry.MustNew(telemetry.Config{Ranks: K, Stages: stages})
		st, err = in.setup(setupOpts{tel: reg}, new(phases))
		if err != nil {
			return nil, fmt.Errorf("telemetry set-up: %w", err)
		}
		on, err := runWindow(st, part, nil, nil, false)
		st.close()
		if err != nil {
			return nil, err
		}
		tally(on)
		v["telemetry.on_over_off"] = ratio(on.p50(), plain.p50())
	}
	return run, nil
}

// tracedMetrics reduces the traced window's steps. Times are medians over
// steps; counts are exact and come from the first two steps (a churn
// cycle: one removing and one re-adding epoch).
func tracedMetrics(v map[string]float64, w *window, link0, link1 runtime.LinkStats, hierWorld bool) {
	steps := w.steps
	if len(steps) == 0 {
		return // the first step failed; the run reports it
	}
	medOf := func(f func(a *stepAgg) float64) float64 {
		vals := make([]float64, len(steps))
		for i := range steps {
			vals[i] = f(&steps[i])
		}
		return median(vals)
	}
	med := func(f func(a *stepAgg) float64) float64 { return medOf(f) / 1e6 } // ns to ms
	perIter := func(x float64, a *stepAgg) float64 {
		if a.iters == 0 {
			return 0
		}
		return x / a.iters
	}
	v["spmv.gather_ms"] = med(func(a *stepAgg) float64 { return a.gather })
	v["spmv.kernel_ms"] = med(func(a *stepAgg) float64 { return a.kernel })
	v["spmv.exchange_ms"] = med(func(a *stepAgg) float64 { return a.exchange })
	v["spmv.exchange_skew_ms"] = med(func(a *stepAgg) float64 { return a.exchangeSkew })
	v["transport.send_ms"] = med(func(a *stepAgg) float64 { return a.send })
	v["transport.recv_wait_ms"] = med(func(a *stepAgg) float64 { return a.recv })
	v["transport.barrier_wait_ms"] = med(func(a *stepAgg) float64 { return a.barrier })
	v["core.replay_ms"] = med(func(a *stepAgg) float64 { return a.layer[kReplay] })
	v["core.patch_ms"] = med(func(a *stepAgg) float64 { return a.layer[kPatch] })
	v["core.patch_compiled_ms"] = med(func(a *stepAgg) float64 { return a.layer[kPatchCompiled] })
	v["dynamic.discover_ms"] = med(func(a *stepAgg) float64 { return a.layer[kDiscover] })
	v["iterative.compute_ms_per_iter"] = med(func(a *stepAgg) float64 { return perIter(a.cgSelf, a) })
	v["collectives.allreduce_ms_per_iter"] = med(func(a *stepAgg) float64 { return perIter(a.collective, a) })
	v["trace.explained_frac"] = medOf(func(a *stepAgg) float64 { return a.explained })

	first := steps[:min(2, len(steps))]
	count := func(f func(a *stepAgg) float64) float64 {
		var sum float64
		for i := range first {
			sum += f(&first[i])
		}
		return sum / float64(len(first))
	}
	var frames float64
	for c := tagClass(0); c < numClasses; c++ {
		frames += count(func(a *stepAgg) float64 { return a.frames[c] })
	}
	v["transport.frames_per_step"] = frames
	v["transport.payload_bytes_per_step"] = count(func(a *stepAgg) float64 {
		return a.bytes[clsStage] + a.bytes[clsCensus] + a.bytes[clsCollective]
	})
	v["dynamic.census_frames_per_step"] = count(func(a *stepAgg) float64 { return a.frames[clsCensus] })
	v["core.dirty_stages"] = count(func(a *stepAgg) float64 { return a.dirtyStages })
	v["iterative.iters"] = count(func(a *stepAgg) float64 { return a.iters })
	v["collectives.frames_per_iter"] = count(func(a *stepAgg) float64 { return perIter(a.frames[clsCollective], a) })

	n := float64(len(steps))
	pkts := float64(link1.PktsSent - link0.PktsSent + link1.Resends() - link0.Resends())
	v["udpnet.pkts_per_step"] = pkts / n
	v["udpnet.resends_per_step"] = float64(link1.Resends()-link0.Resends()) / n
	if pkts > 0 {
		v["udpnet.useful_pkt_frac"] = (float64(link1.PktsSent-link0.PktsSent) - float64(link1.Dups-link0.Dups)) / pkts
	}
	v["udpnet.window_stalls_per_step"] = float64(link1.WindowStalls-link0.WindowStalls) / n
	acks := float64(link1.AcksSent - link0.AcksSent)
	v["udpnet.acks_per_step"] = acks / n
	if supp := float64(link1.AcksSuppressed - link0.AcksSuppressed); acks+supp > 0 {
		v["udpnet.ack_suppressed_frac"] = supp / (acks + supp)
	}
	v["udpnet.srtt_us"] = float64(link1.SRTTNs) / 1e3
	v["udpnet.backlog_hw"] = float64(link1.BacklogHighWater)
	var allFrames float64
	for i := range steps {
		for c := range steps[i].frames {
			allFrames += steps[i].frames[c]
		}
	}
	// Only the hier world mixes transports; its link stats come from the
	// outer (udpnet) side alone.
	if hierWorld && allFrames > 0 {
		v["hier.outer_frame_frac"] = float64(link1.FramesSent-link0.FramesSent) / allFrames
	}
}

// netsimMetric confronts the paper's cost model with the traced run: a
// machine calibrated from the run's own link round trips (alpha is half
// the smoothed RTT) and per-stage times, priced by netsim.CommTime, over
// the measured exchange time of one multiply (each stage as long as its
// busiest rank, the convention CommTime prices).
func netsimMetric(v map[string]float64, w *window, plan *core.Plan, link runtime.LinkStats) error {
	stages := len(plan.Stages)
	measured := make([]float64, stages)
	for d := range measured {
		vals := make([]float64, 0, len(w.steps))
		for _, a := range w.steps {
			if d < len(a.stageBusiest) && a.iters > 0 {
				vals = append(vals, a.stageBusiest[d]/a.iters/1e9)
			}
		}
		measured[d] = median(vals)
	}
	alpha := float64(link.SRTTNs) / 2 / 1e9
	m, err := netsim.CalibrateMachine("loopback (wire-calibrated)", K, alpha, plan, measured)
	if err != nil {
		return err
	}
	pred, err := netsim.CommTime(m, plan)
	if err != nil {
		return err
	}
	var meas float64
	for _, s := range measured {
		meas += s
	}
	if meas > 0 {
		v["netsim.pred_over_meas"] = pred / meas
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when a window that failed early left b without steps.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
