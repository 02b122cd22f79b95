// Property test for the pipelined exchange engine: a live run under the
// recorder must agree frame-for-frame with the static core.Plan — same
// (stage, from, to) frame set, same words and submessage counts, every
// nonempty send mirrored by exactly one receive — and the payload bytes
// resident at every stage boundary must stay within the plan's
// MaxBufferWords bound.
package trace_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"stfw/internal/core"
	"stfw/internal/runtime"
	"stfw/internal/trace"
	"stfw/internal/transport/chanpt"
	"stfw/internal/vpt"
)

func propPayload(src, dst int, words int64) []byte {
	b := make([]byte, 0, words*8)
	for w := int64(0); w < words; w++ {
		b = binary.LittleEndian.AppendUint32(b, uint32(src*65536+dst))
		b = binary.LittleEndian.AppendUint32(b, uint32(w))
	}
	return b
}

func propSendSets(rng *rand.Rand, K int) *core.SendSets {
	s := core.NewSendSets(K)
	// One hot-spot rank with a near-complete send list, plus light traffic.
	hub := rng.Intn(K)
	for dst := 0; dst < K; dst++ {
		if dst != hub && rng.Intn(3) != 0 {
			s.Add(hub, dst, 1+rng.Int63n(4))
		}
	}
	for src := 0; src < K; src++ {
		for l := 0; l < 2; l++ {
			if dst := rng.Intn(K); dst != src {
				s.Add(src, dst, 1+rng.Int63n(4))
			}
		}
	}
	if err := s.Normalize(); err != nil {
		panic(err)
	}
	return s
}

func propTopologies(t *testing.T) []*vpt.Topology {
	t.Helper()
	mk := func(tp *vpt.Topology, err error) *vpt.Topology {
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	return []*vpt.Topology{
		mk(vpt.New(4, 4)),
		mk(vpt.New(2, 2, 2, 2)),
		mk(vpt.NewBalanced(32, 5)),
		mk(vpt.NewFactored(12, 2)),
	}
}

func TestPipelinedExchangeMatchesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, tp := range propTopologies(t) {
		K := tp.Size()
		s := propSendSets(rng, K)
		plan, err := core.BuildPlan(tp, s)
		if err != nil {
			t.Fatal(err)
		}

		w, err := chanpt.NewWorld(K, 2)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder(tp.N())

		var probeMu sync.Mutex
		probeErrs := []error{}
		comms := w.Comms()
		wrapped := make([]runtime.Comm, K)
		for i, c := range comms {
			wrapped[i] = rec.Wrap(c)
		}
		err = runtime.Run(wrapped, func(c runtime.Comm) error {
			rank := c.Rank()
			payloads := map[int][]byte{}
			for _, pr := range s.Sets[rank] {
				payloads[pr.Dst] = propPayload(rank, pr.Dst, pr.Words)
			}
			bound := plan.MaxBufferWords[rank] * 8
			probe := func(stage, residentBytes int) {
				if int64(residentBytes) > bound {
					probeMu.Lock()
					probeErrs = append(probeErrs, fmt.Errorf(
						"rank %d stage %d: %d resident payload bytes exceed plan bound %d",
						rank, stage, residentBytes, bound))
					probeMu.Unlock()
				}
			}
			_, err := core.Exchange(c, tp, payloads,
				core.WithPlan(plan), core.WithStageProbe(probe))
			return err
		})
		if err != nil {
			t.Fatalf("dims %v: %v", tp.Dims(), err)
		}
		for _, perr := range probeErrs {
			t.Errorf("dims %v: %v", tp.Dims(), perr)
		}

		events := rec.Events()
		if err := trace.VerifyAgainstPlan(events, plan); err != nil {
			t.Fatalf("dims %v: %v", tp.Dims(), err)
		}

		// Every nonempty send must be mirrored by exactly one receive with
		// identical stage, endpoints, words and submessage count — the
		// arrival-order engine may reorder deliveries but must not lose,
		// duplicate or alter frames.
		type key struct {
			stage, from, to, subs int
			words                 int64
		}
		sends := map[key]int{}
		recvs := map[key]int{}
		for _, e := range events {
			switch e.Kind {
			case trace.Send:
				sends[key{e.Stage, e.Rank, e.Peer, e.Subs, e.Words}]++
			case trace.Recv:
				recvs[key{e.Stage, e.Peer, e.Rank, e.Subs, e.Words}]++
			}
		}
		for k, n := range sends {
			if recvs[k] != n {
				t.Fatalf("dims %v: frame %d->%d stage %d sent %d times, received %d",
					tp.Dims(), k.from, k.to, k.stage, n, recvs[k])
			}
		}
		for k, n := range recvs {
			if sends[k] != n {
				t.Fatalf("dims %v: frame %d->%d stage %d received %d times, sent %d",
					tp.Dims(), k.from, k.to, k.stage, n, sends[k])
			}
		}
	}
}
