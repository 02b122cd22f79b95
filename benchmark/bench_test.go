package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"stfw/internal/runtime"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the harness
// reads, in step with the workloads and metrics this program measures.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		what string
		spec []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range c.spec {
			got = append(got, metricDef{m.Name, m.Unit, m.Better})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("%s: BENCHMARK.json has\n%v\nthe program measures\n%v", c.what, got, c.defs)
		}
	}
}

// bareComm implements none of the optional runtime seams; seamComm
// implements every one with recognizable answers.
type bareComm struct{ rank int }

func (c *bareComm) Rank() int                        { return c.rank }
func (c *bareComm) Size() int                        { return 2 }
func (c *bareComm) Send(to, tag int, p []byte) error { return nil }
func (c *bareComm) Recv(from, tag int) ([]byte, error) {
	return []byte("bare"), nil
}
func (c *bareComm) Barrier() error { return nil }

type seamComm struct {
	bareComm
	hints [][]runtime.StageTraffic
}

func (c *seamComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	return from[len(from)-1], []byte("any"), nil
}
func (c *seamComm) SendRetains() bool                    { return false }
func (c *seamComm) HintTraffic(s []runtime.StageTraffic) { c.hints = append(c.hints, s) }
func (c *seamComm) LinkStats() []runtime.LinkStats {
	return []runtime.LinkStats{{Peer: 1, FramesSent: 7}}
}
func (c *seamComm) ReservedTags() (lo, hi int) { return 100, 200 }

// seams is what the runtime's seam accessors see on a comm.
type seams struct {
	anyRecv    bool
	retains    bool
	reservedLo int
	reservedHi int
	reserved   bool
	links      []runtime.LinkStats
	anySender  int
	anyPayload string
}

func seamsOf(t *testing.T, c runtime.Comm) seams {
	t.Helper()
	s := seams{retains: runtime.SendRetains(c), links: runtime.LinkStatsOf(c)}
	s.reservedLo, s.reservedHi, s.reserved = runtime.ReservedTagsOf(c)
	sender, payload, err := runtime.RecvAnyOf(c, 5, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s.anySender, s.anyPayload = sender, string(payload)
	if ar, ok := c.(runtime.AnyReceiver); ok {
		_, _, err := ar.RecvAnyOf(5, []int{0, 1})
		s.anyRecv = !errors.Is(err, runtime.ErrNoRecvAny)
	}
	return s
}

// TestTracedCommPreservesSeams checks that wrapping a comm for tracing
// changes none of the answers the runtime's seam accessors give, for a
// comm with every seam, a comm with none, and each real transport.
func TestTracedCommPreservesSeams(t *testing.T) {
	tr := newTracer(2, 3)
	full, bare := &seamComm{}, &bareComm{}
	for _, c := range []runtime.Comm{full, bare} {
		wrapped := wrapComms(tr, []runtime.Comm{c})[0]
		if got, want := seamsOf(t, wrapped), seamsOf(t, c); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: traced seams %+v, bare %+v", c, got, want)
		}
	}
	hint := []runtime.StageTraffic{{Tag: 9}}
	runtime.HintTraffic(wrapComms(tr, []runtime.Comm{full})[0], hint)
	if len(full.hints) != 1 || full.hints[0][0].Tag != 9 {
		t.Errorf("traffic hint not forwarded: %v", full.hints)
	}

	for _, kind := range []transportKind{overChanpt, overUDP, overHier} {
		cs, closeWorld, err := newWorld(kind)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := wrapComms(tr, cs)
		for r := range cs {
			a, b := cs[r], wrapped[r]
			_, aAny := a.(runtime.AnyReceiver)
			_, aHint := a.(runtime.TrafficHinter)
			if !aAny || !aHint && kind != overChanpt {
				t.Errorf("%v rank %d: transport lacks a seam the test expects", kind, r)
			}
			alo, ahi, aok := runtime.ReservedTagsOf(a)
			blo, bhi, bok := runtime.ReservedTagsOf(b)
			if runtime.SendRetains(a) != runtime.SendRetains(b) || alo != blo || ahi != bhi || aok != bok ||
				(runtime.LinkStatsOf(a) == nil) != (runtime.LinkStatsOf(b) == nil) {
				t.Errorf("%v rank %d: traced comm answers a seam differently from the transport", kind, r)
			}
		}
		closeWorld()
	}
}

// stepFrames runs one step of st and returns the frames the transport
// itself counted (udpnet link stats).
func stepFrames(t *testing.T, st stepper) int64 {
	t.Helper()
	before := linkTotals(st.comms())
	if err := st.step(); err != nil {
		t.Fatal(err)
	}
	if err := st.check(); err != nil {
		t.Fatal(err)
	}
	return linkTotals(st.comms()).FramesSent - before.FramesSent
}

// TestTracedFramesMatchUntraced runs the udpnet workload, where every
// frame crosses the wire and the transport counts it, traced and
// untraced: the wrapper's frame count equals the transport's, and tracing
// changes the transport's count not at all.
func TestTracedFramesMatchUntraced(t *testing.T) {
	wl, err := lookupWorkload("cg-powerlaw-udp")
	if err != nil {
		t.Fatal(err)
	}
	in, err := wl.generate(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.serial(); err != nil {
		t.Fatal(err)
	}
	var ph phases
	st, err := in.setup(setupOpts{}, &ph)
	if err != nil {
		t.Fatal(err)
	}
	untraced := stepFrames(t, st)
	st.close()

	tr := newTracer(K, in.topology().N())
	st, err = in.setup(setupOpts{tr: tr}, &ph)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	spans, notes := tr.take(-1, 0, 0, make([][]span, K), make([][]note, K))
	s0 := tr.now()
	wire := stepFrames(t, st)
	s1 := tr.now()
	spans, notes = tr.take(0, s0, s1, spans, notes)
	agg := (&reducer{stages: in.topology().N()}).reduce(s0, s1, spans, notes)
	var traced float64
	for _, f := range agg.frames {
		traced += f
	}
	if untraced == 0 || wire != untraced || int64(traced) != untraced {
		t.Errorf("frames per step: untraced transport %d, traced transport %d, tracing wrapper %v", untraced, wire, traced)
	}
}

// TestExactCountsRepeat runs every workload's traced measurement twice
// with one seed: the exact counts must repeat exactly.
func TestExactCountsRepeat(t *testing.T) {
	exact := []string{
		"core.mmax", "core.mavg", "core.vavg_words", "transport.frames_per_step",
		"iterative.iters", "core.dirty_stages", "dynamic.census_frames_per_step", "collectives.frames_per_iter",
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				in, err := wl.generate(3)
				if err != nil {
					t.Fatal(err)
				}
				d, err := in.serial()
				if err != nil {
					t.Fatal(err)
				}
				lr, err := measureLayers(wl, in, ms(d), time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if lr.failed != 0 {
					t.Fatalf("run %d: %d of %d steps failed: %v", i, lr.failed, lr.attempted, lr.firstErr)
				}
				runs[i] = lr.values
			}
			for _, name := range exact {
				if a, b := runs[0][name], runs[1][name]; a != b {
					t.Errorf("%s: %v then %v", name, a, b)
				}
			}
			if runs[0]["transport.frames_per_step"] == 0 {
				t.Errorf("no frames counted")
			}
		})
	}
}
