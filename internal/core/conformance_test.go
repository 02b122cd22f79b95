// Differential conformance suite: every exchange front-end must produce
// byte-identical deliveries on every supported transport, for every
// topology shape, whether frames are served in arrival order or in fixed
// sender order. Each cell of the (transport, receive order, topology)
// table runs a seeded exchange and compares the full Delivered payloads of
// every rank against a reference computed directly from the send sets — so
// the two receive orders are also proven identical to each other.
package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"stfw/internal/core"
	"stfw/internal/dynamic"
	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/telemetry"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/hier"
	"stfw/internal/transport/tcpnet"
	"stfw/internal/transport/udpnet"
	"stfw/internal/vpt"
)

// confTelemetry switches the whole suite to run with the live telemetry
// layer attached (wrapped comms + exchange span hooks). The CI telemetry
// job sets STFW_TELEMETRY=1 and runs the suite under -race, proving the
// instrumentation neither perturbs results nor races with the engines.
var confTelemetry = os.Getenv("STFW_TELEMETRY") != ""

// confInstrument wraps the world's comms in counting wrappers when
// STFW_TELEMETRY is set and returns the registry (nil when disabled —
// core.WithTelemetry(reg.Rank(r)) then wires a nil, disabled collector).
func confInstrument(t *testing.T, comms []runtime.Comm, stages int) *telemetry.Registry {
	t.Helper()
	if !confTelemetry {
		return nil
	}
	reg, err := telemetry.New(telemetry.Config{Ranks: len(comms), Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	reg.WrapComms(comms, func(tag int) (int, bool) {
		return core.TagStage(tag, stages)
	})
	return reg
}

// confCheckTelemetry asserts the collectors saw the run and that the span
// rings export a structurally valid Perfetto trace.
func confCheckTelemetry(t *testing.T, reg *telemetry.Registry) {
	t.Helper()
	if reg == nil {
		return
	}
	s := reg.Snapshot()
	if tot := s.Totals(); tot.Sends == 0 || tot.Recvs == 0 {
		t.Fatalf("telemetry recorded no traffic: %+v", tot)
	}
	var buf bytes.Buffer
	if err := reg.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// confPayload derives a deterministic, per-(src,dst) payload with a length
// that is intentionally not a multiple of 8, exercising the codec on
// unaligned data.
func confPayload(src, dst int) []byte {
	n := 1 + (src*31+dst*7)%45
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(src*17 + dst*29 + i*13)
	}
	return b
}

// confSendSets builds a seeded irregular pattern: a few heavy ranks with
// near-complete send lists plus light random traffic, mirroring the
// hot-spot patterns of the paper's experiments.
func confSendSets(seed int64, K int) map[int][]int {
	rng := rand.New(rand.NewSource(seed))
	dests := make(map[int][]int, K)
	for h := 0; h < 2; h++ {
		src := rng.Intn(K)
		for dst := 0; dst < K; dst++ {
			if dst != src && rng.Intn(4) != 0 {
				dests[src] = append(dests[src], dst)
			}
		}
	}
	for src := 0; src < K; src++ {
		for l := 0; l < 2; l++ {
			if dst := rng.Intn(K); dst != src {
				dests[src] = append(dests[src], dst)
			}
		}
	}
	for src, ds := range dests { // dedup
		seen := map[int]bool{}
		out := ds[:0]
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
		dests[src] = out
	}
	return dests
}

// refDeliveries computes what every rank must receive, sorted the way
// Exchange sorts (by Src, then Dst — Dst is constant per rank here).
func refDeliveries(K int, dests map[int][]int) [][]msg.Submessage {
	ref := make([][]msg.Submessage, K)
	for src := 0; src < K; src++ { // ascending src = sorted order
		for _, dst := range dests[src] {
			ref[dst] = append(ref[dst], msg.Submessage{Src: src, Dst: dst, Data: confPayload(src, dst)})
		}
	}
	return ref
}

// runConformance executes one table cell over the given communicators and
// checks byte-identical deliveries.
func runConformance(t *testing.T, comms []runtime.Comm, tp *vpt.Topology, dests map[int][]int) {
	t.Helper()
	K := len(comms)
	reg := confInstrument(t, comms, tp.N())
	got := make([]*core.Delivered, K)
	err := runtime.Run(comms, func(c runtime.Comm) error {
		payloads := map[int][]byte{}
		for _, dst := range dests[c.Rank()] {
			payloads[dst] = confPayload(c.Rank(), dst)
		}
		d, err := core.Exchange(c, tp, payloads, core.WithTelemetry(reg.Rank(c.Rank())))
		if err != nil {
			return err
		}
		got[c.Rank()] = d
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	confCheckTelemetry(t, reg)
	ref := refDeliveries(K, dests)
	for q := 0; q < K; q++ {
		if len(got[q].Subs) != len(ref[q]) {
			t.Fatalf("rank %d: %d deliveries, want %d", q, len(got[q].Subs), len(ref[q]))
		}
		for i, sub := range got[q].Subs {
			w := ref[q][i]
			if sub.Src != w.Src || sub.Dst != w.Dst || !bytes.Equal(sub.Data, w.Data) {
				t.Fatalf("rank %d delivery %d: got (%d->%d, %x), want (%d->%d, %x)",
					q, i, sub.Src, sub.Dst, sub.Data, w.Src, w.Dst, w.Data)
			}
		}
	}
}

// conformanceTopologies enumerates the VPT shapes of the suite: every
// balanced dimension for the power-of-two sizes, plus mixed-radix factored
// topologies for non-power-of-two K.
func conformanceTopologies(t *testing.T) []*vpt.Topology {
	t.Helper()
	var tps []*vpt.Topology
	for _, K := range []int{8, 16, 64} {
		for n := 1; n <= vpt.MaxDim(K); n++ {
			tp, err := vpt.NewBalanced(K, n)
			if err != nil {
				t.Fatal(err)
			}
			tps = append(tps, tp)
		}
	}
	for _, c := range []struct{ K, n int }{{12, 2}, {18, 2}, {60, 3}} {
		tp, err := vpt.NewFactored(c.K, c.n)
		if err != nil {
			t.Fatal(err)
		}
		tps = append(tps, tp)
	}
	return tps
}

// orderName labels the receive-order axis of the tables: "pipelined" cells
// serve frames in arrival order through the transport's matcher, "ordered"
// cells run over forceOrdered, which hides the matcher so every receive
// falls back to fixed sender order.
func orderName(ordered bool) string {
	if ordered {
		return "ordered"
	}
	return "pipelined"
}

// withOrder returns comms unchanged for arrival-order cells and wrapped in
// forceOrdered for fixed-order cells.
func withOrder(comms []runtime.Comm, ordered bool) []runtime.Comm {
	if ordered {
		return forceOrderedComms(comms)
	}
	return comms
}

func TestConformanceChanpt(t *testing.T) {
	for _, tp := range conformanceTopologies(t) {
		for _, ordered := range []bool{false, true} {
			tp := tp
			ordered := ordered
			t.Run(fmt.Sprintf("K=%d/dims=%v/%s", tp.Size(), tp.Dims(), orderName(ordered)), func(t *testing.T) {
				t.Parallel()
				w, err := chanpt.NewWorld(tp.Size(), 2)
				if err != nil {
					t.Fatal(err)
				}
				dests := confSendSets(int64(tp.Size()), tp.Size())
				runConformance(t, withOrder(w.Comms(), ordered), tp, dests)
			})
		}
	}
}

func TestConformanceTCP(t *testing.T) {
	for _, tp := range conformanceTopologies(t) {
		if tp.Size() >= 64 && tp.N() == 1 {
			// The 1-dimensional VPT at K=64 is a full mesh: ~K^2 loopback
			// sockets, enough to trip default fd limits. The mesh case is
			// covered at K=8 and K=16.
			continue
		}
		if testing.Short() && tp.Size() > 16 {
			continue
		}
		for _, ordered := range []bool{false, true} {
			tp := tp
			ordered := ordered
			t.Run(fmt.Sprintf("K=%d/dims=%v/%s", tp.Size(), tp.Dims(), orderName(ordered)), func(t *testing.T) {
				w, err := tcpnet.NewWorld(tp.Size())
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				dests := confSendSets(int64(tp.Size()), tp.Size())
				runConformance(t, withOrder(w.Comms(), ordered), tp, dests)
			})
		}
	}
}

// TestConformanceUDP runs the full differential suite over udpnet's
// batched-datagram transport. Unlike tcpnet, the K=64 mesh is kept: udpnet
// opens one socket per rank regardless of radix, so fd pressure never
// scales with K^2. Every world is VerifyWorld-gated so a schedule bug is
// reported as such, not as a transport failure.
func TestConformanceUDP(t *testing.T) {
	for _, tp := range conformanceTopologies(t) {
		if testing.Short() && tp.Size() > 16 {
			continue
		}
		for _, ordered := range []bool{false, true} {
			tp := tp
			ordered := ordered
			t.Run(fmt.Sprintf("K=%d/dims=%v/%s", tp.Size(), tp.Dims(), orderName(ordered)), func(t *testing.T) {
				if err := core.VerifyWorld(core.WorldSchedules(tp)); err != nil {
					t.Fatalf("schedule world invalid before transport test: %v", err)
				}
				w, err := udpnet.NewWorld(tp.Size())
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				dests := confSendSets(int64(tp.Size()), tp.Size())
				runConformance(t, withOrder(w.Comms(), ordered), tp, dests)
			})
		}
	}
}

// TestConformanceHier runs the full differential suite over the
// hierarchical composite transport: chanpt carrying intra-node pairs and
// udpnet carrying inter-node pairs, under a two-node split of every
// conformance world (K∈{8,16,64} balanced shapes plus the mixed-radix
// sizes). Every world is VerifyWorld-gated, and the node boundary is
// deliberately *not* aligned with a VPT digit split for most shapes, so
// single stages carry frames on both sub-transports and the cross-sub
// arbitration path runs under both engines.
func TestConformanceHier(t *testing.T) {
	for _, tp := range conformanceTopologies(t) {
		if testing.Short() && tp.Size() > 16 {
			continue
		}
		for _, ordered := range []bool{false, true} {
			tp := tp
			ordered := ordered
			t.Run(fmt.Sprintf("K=%d/dims=%v/%s", tp.Size(), tp.Dims(), orderName(ordered)), func(t *testing.T) {
				if err := core.VerifyWorld(core.WorldSchedules(tp)); err != nil {
					t.Fatalf("schedule world invalid before transport test: %v", err)
				}
				K := tp.Size()
				cw, err := chanpt.NewWorld(K, 2)
				if err != nil {
					t.Fatal(err)
				}
				defer cw.Close()
				uw, err := udpnet.NewWorld(K)
				if err != nil {
					t.Fatal(err)
				}
				defer uw.Close()
				half := (K + 1) / 2
				hw, err := hier.New(hier.Config{
					Inner:  cw.Comms(),
					Outer:  uw.Comms(),
					NodeOf: func(r int) int { return r / half },
				})
				if err != nil {
					t.Fatal(err)
				}
				dests := confSendSets(int64(K), K)
				runConformance(t, withOrder(hw.Comms(), ordered), tp, dests)
			})
		}
	}
}

// TestConformanceDirect runs the same differential check for the baseline
// DirectExchange in both receive orders over every transport.
func TestConformanceDirect(t *testing.T) {
	const K = 16
	dests := confSendSets(99, K)
	recvFrom := make([][]int, K)
	for src, ds := range dests {
		for _, dst := range ds {
			recvFrom[dst] = append(recvFrom[dst], src)
		}
	}
	ref := refDeliveries(K, dests)

	run := func(t *testing.T, comms []runtime.Comm) {
		reg := confInstrument(t, comms, 1)
		got := make([]*core.Delivered, K)
		err := runtime.Run(comms, func(c runtime.Comm) error {
			payloads := map[int][]byte{}
			for _, dst := range dests[c.Rank()] {
				payloads[dst] = confPayload(c.Rank(), dst)
			}
			d, err := core.DirectExchange(c, payloads, recvFrom[c.Rank()], core.WithTelemetry(reg.Rank(c.Rank())))
			if err != nil {
				return err
			}
			got[c.Rank()] = d
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		confCheckTelemetry(t, reg)
		for q := 0; q < K; q++ {
			if len(got[q].Subs) != len(ref[q]) {
				t.Fatalf("rank %d: %d deliveries, want %d", q, len(got[q].Subs), len(ref[q]))
			}
			for i, sub := range got[q].Subs {
				w := ref[q][i]
				if sub.Src != w.Src || !bytes.Equal(sub.Data, w.Data) {
					t.Fatalf("rank %d delivery %d differs", q, i)
				}
			}
		}
	}

	for _, ordered := range []bool{false, true} {
		t.Run("chanpt/"+orderName(ordered), func(t *testing.T) {
			w, err := chanpt.NewWorld(K, K)
			if err != nil {
				t.Fatal(err)
			}
			run(t, withOrder(w.Comms(), ordered))
		})
		t.Run("tcpnet/"+orderName(ordered), func(t *testing.T) {
			w, err := tcpnet.NewWorld(K)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			run(t, withOrder(w.Comms(), ordered))
		})
		t.Run("udpnet/"+orderName(ordered), func(t *testing.T) {
			w, err := udpnet.NewWorld(K)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			run(t, withOrder(w.Comms(), ordered))
		})
	}
}

// forceOrdered hides the transport's arrival-order matcher: RecvAnyOf
// reports ErrNoRecvAny, so runtime.RecvAnyOf degrades to fixed-order
// targeted receives. The "ordered" cells of every table use it to pin the
// receive order of the stage machine and the compiled replay, while frame
// ownership (SendRetains) still reflects the underlying transport.
type forceOrdered struct{ runtime.Comm }

func (f forceOrdered) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	return -1, nil, runtime.ErrNoRecvAny
}

func (f forceOrdered) SendRetains() bool { return runtime.SendRetains(f.Comm) }

func forceOrderedComms(comms []runtime.Comm) []runtime.Comm {
	out := make([]runtime.Comm, len(comms))
	for i, c := range comms {
		out[i] = forceOrdered{c}
	}
	return out
}

// confRoundPayload derives a per-round payload of the same length as
// confPayload(src, dst): replay rounds ship fresh bytes through the learned
// pattern, proving the replay moves data rather than echoing the learning
// run.
func confRoundPayload(src, dst, round int) []byte {
	b := confPayload(src, dst)
	for i := range b {
		b[i] += byte(round * 101)
	}
	return b
}

// persistentConformanceTopologies is the (smaller) shape set of the
// Persistent/Replay conformance cells: each cell runs a learning exchange
// plus multiple replays, so the suite trades a few large shapes for rounds.
func persistentConformanceTopologies(t *testing.T, tcp bool) []*vpt.Topology {
	t.Helper()
	var tps []*vpt.Topology
	for _, K := range []int{8, 16} {
		for n := 1; n <= vpt.MaxDim(K); n++ {
			tp, err := vpt.NewBalanced(K, n)
			if err != nil {
				t.Fatal(err)
			}
			tps = append(tps, tp)
		}
	}
	tp, err := vpt.NewFactored(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	tps = append(tps, tp)
	if !tcp {
		tp, err := vpt.NewBalanced(64, 3)
		if err != nil {
			t.Fatal(err)
		}
		tps = append(tps, tp)
	}
	return tps
}

// runPersistentConformance learns the pattern once per rank, then replays it
// twice with fresh per-round payloads, checking every round's deliveries
// byte-for-byte against the independently computed reference. The learned
// world must also pass the world verifiers.
func runPersistentConformance(t *testing.T, comms []runtime.Comm, tp *vpt.Topology, dests map[int][]int) {
	t.Helper()
	K := len(comms)
	const rounds = 2
	got := make([][][]msg.Submessage, rounds+1) // round 0 = learning run
	for r := range got {
		got[r] = make([][]msg.Submessage, K)
	}
	ps := make([]*core.Persistent, K)
	err := runtime.Run(comms, func(c runtime.Comm) error {
		me := c.Rank()
		payloads := map[int][]byte{}
		for _, dst := range dests[me] {
			payloads[dst] = confRoundPayload(me, dst, 0)
		}
		p, d, err := core.NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		ps[me] = p
		got[0][me] = d.Subs
		for r := 1; r <= rounds; r++ {
			for _, dst := range dests[me] {
				payloads[dst] = confRoundPayload(me, dst, r)
			}
			d, err := p.Run(c, payloads)
			if err != nil {
				return err
			}
			got[r][me] = d.Subs
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyLearned(t, ps, tp, dests)
	for r := 0; r <= rounds; r++ {
		for q := 0; q < K; q++ {
			var ref []msg.Submessage
			for src := 0; src < K; src++ {
				for _, dst := range dests[src] {
					if dst == q {
						ref = append(ref, msg.Submessage{Src: src, Dst: q, Data: confRoundPayload(src, q, r)})
					}
				}
			}
			if len(got[r][q]) != len(ref) {
				t.Fatalf("round %d rank %d: %d deliveries, want %d", r, q, len(got[r][q]), len(ref))
			}
			for i, sub := range got[r][q] {
				w := ref[i]
				if sub.Src != w.Src || sub.Dst != w.Dst || !bytes.Equal(sub.Data, w.Data) {
					t.Fatalf("round %d rank %d delivery %d: got (%d->%d, %x), want (%d->%d, %x)",
						r, q, i, sub.Src, sub.Dst, sub.Data, w.Src, w.Dst, w.Data)
				}
			}
		}
	}
}

// verifyLearned gates a learned world through the world verifiers:
// schedule consistency, payload-plane symmetry (VerifyLearnedWorld), and
// conservation against a static plan built independently from the send
// sets.
func verifyLearned(t *testing.T, ps []*core.Persistent, tp *vpt.Topology, dests map[int][]int) {
	t.Helper()
	scheds := core.LearnedWorldSchedules(ps)
	if err := core.VerifyLearnedWorld(ps); err != nil {
		t.Fatalf("VerifyLearnedWorld: %v", err)
	}
	ss := core.NewSendSets(tp.Size())
	for src, ds := range dests {
		for _, dst := range ds {
			ss.Add(src, dst, 1)
		}
	}
	if err := ss.Normalize(); err != nil {
		t.Fatal(err)
	}
	plan, err := core.BuildPlan(tp, ss)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyWorldAgainstPlan(scheds, plan); err != nil {
		t.Fatalf("VerifyWorldAgainstPlan: %v", err)
	}
}

// TestConformancePersistent checks the learned-schedule front-end, learning
// run and replays, on every transport in both receive orders: every
// round's deliveries are bit-identical to the reference, and the learned
// world passes the world verifiers. Each cell also runs the discovery
// census.
func TestConformancePersistent(t *testing.T) {
	for _, transport := range []string{"chanpt", "tcpnet", "udpnet"} {
		for _, tp := range persistentConformanceTopologies(t, transport == "tcpnet") {
			if transport != "chanpt" && testing.Short() && tp.Size() > 8 {
				continue
			}
			for _, ordered := range []bool{false, true} {
				tp := tp
				ordered := ordered
				transport := transport
				t.Run(fmt.Sprintf("%s/K=%d/dims=%v/%s", transport, tp.Size(), tp.Dims(), orderName(ordered)), func(t *testing.T) {
					var comms []runtime.Comm
					switch transport {
					case "chanpt":
						t.Parallel()
						w, err := chanpt.NewWorld(tp.Size(), 2)
						if err != nil {
							t.Fatal(err)
						}
						comms = w.Comms()
					case "tcpnet":
						w, err := tcpnet.NewWorld(tp.Size())
						if err != nil {
							t.Fatal(err)
						}
						defer w.Close()
						comms = w.Comms()
					case "udpnet":
						w, err := udpnet.NewWorld(tp.Size())
						if err != nil {
							t.Fatal(err)
						}
						defer w.Close()
						comms = w.Comms()
					}
					comms = withOrder(comms, ordered)
					dests := confSendSets(int64(tp.Size()), tp.Size())
					runPersistentConformance(t, comms, tp, dests)
					runCensusConformance(t, comms, tp)
				})
			}
		}
	}
}

// confWords is the word count of the compiled-replay payload src ships to
// dst; same variety as confPayload's byte lengths.
func confWords(src, dst int) int { return 1 + (src*31+dst*7)%45 }

const confXLen = 256

// confGather builds rank src's gather lists: one index list per destination,
// deterministic so the reference halo is computable without executing.
func confGather(src int, dests []int) map[int][]int32 {
	g := make(map[int][]int32, len(dests))
	for _, dst := range dests {
		idx := make([]int32, confWords(src, dst))
		for i := range idx {
			idx[i] = int32((dst*13 + i*7) % confXLen)
		}
		g[dst] = idx
	}
	return g
}

// confX is rank src's local vector for compiled-replay rounds.
func confX(src, round int) []float64 {
	x := make([]float64, confXLen)
	for i := range x {
		x[i] = float64(src*confXLen+i) + float64(round)*0.25
	}
	return x
}

// runReplayConformance compiles the learned pattern on every rank and runs
// two compiled iterations, checking each halo float-for-float against the
// reference (delivery blocks sorted by source, gathered from the sender's
// local vector).
func runReplayConformance(t *testing.T, comms []runtime.Comm, tp *vpt.Topology, dests map[int][]int) {
	t.Helper()
	K := len(comms)
	const rounds = 2
	halos := make([][][]float64, rounds)
	for r := range halos {
		halos[r] = make([][]float64, K)
	}
	ps := make([]*core.Persistent, K)
	err := runtime.Run(comms, func(c runtime.Comm) error {
		me := c.Rank()
		gather := confGather(me, dests[me])
		payloads := make(map[int][]byte, len(gather))
		for dst, idx := range gather {
			payloads[dst] = make([]byte, 8*len(idx))
		}
		p, _, err := core.NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		ps[me] = p
		rep, err := p.Compile(confXLen, gather)
		if err != nil {
			return err
		}
		halo := make([]float64, rep.HaloWords())
		for r := 0; r < rounds; r++ {
			if err := rep.Run(c, confX(me, r), halo); err != nil {
				return err
			}
			halos[r][me] = append([]float64(nil), halo...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyLearned(t, ps, tp, dests)
	for r := 0; r < rounds; r++ {
		for q := 0; q < K; q++ {
			var ref []float64
			for src := 0; src < K; src++ {
				for _, dst := range dests[src] {
					if dst != q {
						continue
					}
					x := confX(src, r)
					for _, g := range confGather(src, dests[src])[q] {
						ref = append(ref, x[g])
					}
				}
			}
			if len(halos[r][q]) != len(ref) {
				t.Fatalf("round %d rank %d: halo has %d words, want %d", r, q, len(halos[r][q]), len(ref))
			}
			for i := range ref {
				if halos[r][q][i] != ref[i] {
					t.Fatalf("round %d rank %d halo[%d] = %v, want %v", r, q, i, halos[r][q][i], ref[i])
				}
			}
		}
	}
}

// TestConformanceReplay checks the compiled lowering of the learned schedule
// on every transport, in arrival order and (via forceOrdered) in fixed
// receive order: the halos must match the reference exactly in every round,
// and the learned world passes the world verifiers.
func TestConformanceReplay(t *testing.T) {
	for _, transport := range []string{"chanpt", "tcpnet", "udpnet"} {
		for _, tp := range persistentConformanceTopologies(t, transport == "tcpnet") {
			if transport != "chanpt" && testing.Short() && tp.Size() > 8 {
				continue
			}
			for _, ordered := range []bool{false, true} {
				tp := tp
				ordered := ordered
				transport := transport
				t.Run(fmt.Sprintf("%s/K=%d/dims=%v/%s", transport, tp.Size(), tp.Dims(), orderName(ordered)), func(t *testing.T) {
					var comms []runtime.Comm
					switch transport {
					case "chanpt":
						t.Parallel()
						w, err := chanpt.NewWorld(tp.Size(), 2)
						if err != nil {
							t.Fatal(err)
						}
						comms = w.Comms()
					case "tcpnet":
						w, err := tcpnet.NewWorld(tp.Size())
						if err != nil {
							t.Fatal(err)
						}
						defer w.Close()
						comms = w.Comms()
					case "udpnet":
						w, err := udpnet.NewWorld(tp.Size())
						if err != nil {
							t.Fatal(err)
						}
						defer w.Close()
						comms = w.Comms()
					}
					dests := confSendSets(int64(tp.Size()), tp.Size())
					runReplayConformance(t, withOrder(comms, ordered), tp, dests)
				})
			}
		}
	}
}

// confDeltas derives every rank's census input: one addition and, where
// the destinations differ, one removal, both rank-derived.
func confDeltas(K int) []dynamic.Delta {
	deltas := make([]dynamic.Delta, K)
	for r := 0; r < K; r++ {
		addDst, rmDst := (r*3+1)%K, (r*5+2)%K
		deltas[r].Add = []dynamic.Announce{{Dst: addDst, Size: 8 * (r + 1)}}
		if rmDst != addDst {
			deltas[r].Remove = []int{rmDst}
		}
	}
	return deltas
}

// runCensusConformance runs the discovery census on comms and again with
// every receive forced into fixed sender order, and requires each rank's
// PatchDelta to hold the same pairs in both runs. The fixed-order result is
// itself checked against the pairs whose dimension-ordered route involves
// the rank, derived independently from the topology.
func runCensusConformance(t *testing.T, comms []runtime.Comm, tp *vpt.Topology) {
	t.Helper()
	K := len(comms)
	deltas := confDeltas(K)
	census := func(comms []runtime.Comm) [][]core.PatchPair {
		got := make([][]core.PatchPair, K)
		err := runtime.Run(comms, func(c runtime.Comm) error {
			d, err := dynamic.Discover(c, tp, deltas[c.Rank()])
			if err != nil {
				return err
			}
			got[c.Rank()] = sortedPairs(d.Pairs)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	got, fixed := census(comms), census(forceOrderedComms(comms))
	for me := 0; me < K; me++ {
		var want []core.PatchPair
		for src, d := range deltas {
			for _, a := range d.Add {
				if routeInvolves(tp, me, src, a.Dst) {
					want = append(want, core.PatchPair{Src: src, Dst: a.Dst, Size: a.Size})
				}
			}
			for _, dst := range d.Remove {
				if routeInvolves(tp, me, src, dst) {
					want = append(want, core.PatchPair{Src: src, Dst: dst, Remove: true})
				}
			}
		}
		want = sortedPairs(want)
		if !slices.Equal(fixed[me], want) {
			t.Fatalf("rank %d: fixed-order census %+v, want %+v", me, fixed[me], want)
		}
		if !slices.Equal(got[me], fixed[me]) {
			t.Fatalf("rank %d: census %+v, fixed-order census %+v", me, got[me], fixed[me])
		}
	}
}

// routeInvolves reports whether rank me lies on the dimension-ordered route
// of (src, dst): origin, any forwarder, or destination.
func routeInvolves(t *vpt.Topology, me, src, dst int) bool {
	cur := src
	for d := 0; d < t.N() && cur != me; d++ {
		cur = t.RouteNext(cur, dst, d)
	}
	return cur == me || dst == me
}

// sortedPairs returns a sorted copy of a PatchDelta's pairs, so deltas can
// be compared as sets.
func sortedPairs(ps []core.PatchPair) []core.PatchPair {
	out := slices.Clone(ps)
	slices.SortFunc(out, func(a, b core.PatchPair) int {
		if a.Src != b.Src {
			return a.Src - b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst - b.Dst
		}
		if a.Remove != b.Remove {
			if a.Remove {
				return 1
			}
			return -1
		}
		return a.Size - b.Size
	})
	return out
}
