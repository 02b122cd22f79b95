package udpnet

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"stfw/internal/core"
	"stfw/internal/runtime"
	"stfw/internal/transport/tptest"
	"stfw/internal/vpt"
)

func factory(opts ...Option) tptest.Factory {
	return func(size int) ([]runtime.Comm, func(), error) {
		w, err := NewWorld(size, opts...)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), w.Close, nil
	}
}

// udpnet is a wire transport with a native arrival-order matcher: frames
// are serialized before Send returns, close wakes receivers, and the
// matcher validates candidate lists itself. Delivery crosses goroutines
// and sockets, so strict earliest-arrival ordering is not deterministic.
var conformanceOpts = tptest.Options{
	WantSendRetains: false,
	TestClose:       true,
	TestOutOfRange:  true,
}

func TestConformance(t *testing.T) {
	tptest.Run(t, factory(), conformanceOpts)
}

// TestConformanceNoBatchIO pins the portable (per-datagram syscall) path,
// so both I/O paths stay covered regardless of platform.
func TestConformanceNoBatchIO(t *testing.T) {
	tptest.Run(t, factory(WithoutBatchIO()), conformanceOpts)
}

// TestConformanceUnderLoss runs the full conformance suite with 5% of all
// datagrams dropped before the socket: the selective-resend machinery must
// make the transport contract hold anyway.
func TestConformanceUnderLoss(t *testing.T) {
	tptest.Run(t, factory(WithLoss(0.05, 1)), conformanceOpts)
}

// TestConformanceUnderDelay layers the frame-level delay injector (the
// semantics-preserving fault class) over the transport.
func TestConformanceUnderDelay(t *testing.T) {
	tptest.Run(t, tptest.WithFaults(factory(), tptest.FaultConfig{
		Seed:  42,
		Delay: 0.3,
	}), conformanceOpts)
}

// TestLossRecoveredByResend proves packet loss is actually exercised and
// actually repaired: a lossy bulk exchange must deliver every byte intact
// while the stats show injected drops and resends.
func TestLossRecoveredByResend(t *testing.T) {
	const K, frames, sizeB = 4, 64, 3000
	w, err := NewWorld(K, WithLoss(0.08, 7))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		to := (c.Rank() + 1) % K
		from := (c.Rank() + K - 1) % K
		done := make(chan error, 1)
		go func() {
			for i := 0; i < frames; i++ {
				p := bytes.Repeat([]byte{byte(i)}, sizeB)
				if err := c.Send(to, 9, p); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for i := 0; i < frames; i++ {
			p, err := c.Recv(from, 9)
			if err != nil {
				return err
			}
			if len(p) != sizeB || p[0] != byte(i) || p[sizeB-1] != byte(i) {
				return fmt.Errorf("rank %d frame %d corrupt (%d bytes, first %d)", c.Rank(), i, len(p), p[0])
			}
		}
		return <-done
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.InjectedDrops == 0 {
		t.Error("loss injection never fired")
	}
	if st.Resends == 0 {
		t.Error("no resends despite injected drops")
	}
	// The per-link counters must show the repairs directly, and agree with
	// the world totals (any drift means a resend path missed its metric
	// hook).
	var linkResends, timeouts, gaps, dups int64
	for r := 0; r < K; r++ {
		for _, l := range w.RankLinkStats(r) {
			linkResends += l.Resends()
			timeouts += l.TimeoutResends
			gaps += l.GapResends
			dups += l.Dups
			if l.FramesSent > 0 && l.PktsSent == 0 {
				t.Errorf("rank %d link %d: %d frames sent but no packets counted", r, l.Peer, l.FramesSent)
			}
		}
	}
	if linkResends != st.Resends {
		t.Errorf("per-link resends %d (timeout %d + gap %d) != world resends %d",
			linkResends, timeouts, gaps, st.Resends)
	}
	if linkResends == 0 {
		t.Error("per-link counters recorded no resends despite injected drops")
	}
	t.Logf("drops=%d resends=%d (timeout=%d gap=%d) dups=%d", st.InjectedDrops, linkResends, timeouts, gaps, dups)
}

func TestLargeFrameFragmentation(t *testing.T) {
	// A frame much larger than one datagram must fragment and reassemble
	// exactly, including under loss.
	for _, loss := range []float64{0, 0.05} {
		t.Run(fmt.Sprintf("loss=%v", loss), func(t *testing.T) {
			w, err := NewWorld(2, WithLoss(loss, 3))
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 300_000)
			for i := range payload {
				payload[i] = byte(i * 31)
			}
			err = w.Run(func(c runtime.Comm) error {
				if c.Rank() == 0 {
					return c.Send(1, 2, payload)
				}
				p, err := c.Recv(0, 2)
				if err != nil {
					return err
				}
				if !bytes.Equal(p, payload) {
					return fmt.Errorf("reassembled frame differs")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBarrierOverUDPWorld(t *testing.T) {
	w, err := NewWorld(8)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		for i := 0; i < 5; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSTFWExchangeOverUDP(t *testing.T) {
	// The full store-and-forward algorithm over UDP sockets.
	const K = 16
	tp, err := vpt.NewBalanced(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(K)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		payloads := map[int][]byte{
			(c.Rank() + 1) % K: {byte(c.Rank()), 1},
			(c.Rank() + 5) % K: {byte(c.Rank()), 5},
		}
		d, err := core.Exchange(c, tp, payloads)
		if err != nil {
			return err
		}
		if len(d.Subs) != 2 {
			return fmt.Errorf("rank %d got %d deliveries", c.Rank(), len(d.Subs))
		}
		for _, sub := range d.Subs {
			wantFrom := (c.Rank() + K - int(sub.Data[1])) % K
			if sub.Src != wantFrom || int(sub.Data[0]) != wantFrom {
				return fmt.Errorf("rank %d: bad delivery %+v", c.Rank(), sub)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.BatchDgrams == 0 {
		t.Error("no datagrams counted through the batch path")
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewGroup(GroupConfig{Size: 2, Local: []int{0, 0}}); err == nil {
		t.Error("mismatched local/conns accepted")
	}
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	comms := w.Comms()
	if err := comms[0].Send(9, 0, nil); err == nil {
		t.Error("out-of-range send accepted")
	}
	if _, err := comms[0].Recv(-1, 0); err == nil {
		t.Error("out-of-range recv accepted")
	}
	if w.Size() != 2 {
		t.Error("size wrong")
	}
}

// TestHintedAcksSuppressSpeculation drives repeated hinted exchanges and
// asserts the zero-speculation path engaged: stage-completion acks fired
// and per-batch acks were suppressed while stages were in flight.
func TestHintedAcksSuppressSpeculation(t *testing.T) {
	const K, iters = 8, 50
	tp, err := vpt.NewBalanced(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(K)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		buf := bytes.Repeat([]byte{byte(c.Rank())}, 64)
		payloads := map[int][]byte{(c.Rank() + 3) % K: buf}
		p, _, err := core.NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if _, err := p.Run(c, payloads); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.StageAcks == 0 {
		t.Error("hints installed but no stage-completion acks fired")
	}
	// The per-link ack classification must agree with the world totals.
	var acksSent, suppressed, stage, liveness int64
	for r := 0; r < K; r++ {
		for _, l := range w.RankLinkStats(r) {
			acksSent += l.AcksSent
			suppressed += l.AcksSuppressed
			stage += l.StageAcks
			liveness += l.LivenessAcks
		}
	}
	if acksSent != st.AcksSent {
		t.Errorf("per-link acks sent %d != world %d", acksSent, st.AcksSent)
	}
	if suppressed != st.AcksSuppressed {
		t.Errorf("per-link acks suppressed %d != world %d", suppressed, st.AcksSuppressed)
	}
	if stage != st.StageAcks {
		t.Errorf("per-link stage acks %d != world %d", stage, st.StageAcks)
	}
	if stage == 0 {
		t.Error("stage-completion acks not visible in per-link counters")
	}
	t.Logf("stats: %+v (per-link: suppressed=%d liveness=%d)", st, suppressed, liveness)
}

// TestGroupTwoWorlds runs a 4-rank world split across two World instances
// in one process — the exact topology a multi-process launcher creates,
// without the exec.
func TestGroupTwoWorlds(t *testing.T) {
	const K = 4
	conns, addrs, err := Bind(K)
	if err != nil {
		t.Fatal(err)
	}
	wA, err := NewGroup(GroupConfig{Size: K, Local: []int{0, 1}, Conns: conns[:2], Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer wA.Close()
	wB, err := NewGroup(GroupConfig{Size: K, Local: []int{2, 3}, Conns: conns[2:], Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer wB.Close()

	comms := append(wA.Comms(), wB.Comms()...)
	err = runtime.Run(comms, func(c runtime.Comm) error {
		// Ring exchange plus a barrier, crossing the world boundary.
		to, from := (c.Rank()+1)%K, (c.Rank()+K-1)%K
		if err := c.Send(to, 1, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		p, err := c.Recv(from, 1)
		if err != nil {
			return err
		}
		if len(p) != 1 || int(p[0]) != from {
			return fmt.Errorf("rank %d got %v from %d", c.Rank(), p, from)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGroupCloseFlushesRemote pins the multi-process shutdown race: a world
// that closes right after its last Send (the barrier coordinator releasing
// another process's ranks) must still get those frames to the remote rank,
// even when its first transmissions are lost. Send only queues a frame, so
// a Close that tore the socket down at once would strand them.
func TestGroupCloseFlushesRemote(t *testing.T) {
	const frames = 8
	conns, addrs, err := Bind(2)
	if err != nil {
		t.Fatal(err)
	}
	wA, err := NewGroup(GroupConfig{Size: 2, Local: []int{0}, Conns: conns[:1], Addrs: addrs}, WithLoss(0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	wB, err := NewGroup(GroupConfig{Size: 2, Local: []int{1}, Conns: conns[1:], Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer wB.Close()
	a, b := wA.Comms()[0], wB.Comms()[0]
	for i := 0; i < frames; i++ {
		if err := a.Send(1, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	wA.Close()

	done := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			p, err := b.Recv(0, 1)
			if err != nil {
				done <- err
				return
			}
			if len(p) != 1 || int(p[0]) != i {
				done <- fmt.Errorf("frame %d: got %v", i, p)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frames sent before Close never reached the remote rank")
	}
}

// TestRingSteadyState proves the bounded-allocation claim: after a warmup
// exchange, further iterations mint no new packet buffers.
func TestRingSteadyState(t *testing.T) {
	const K = 4
	tp, err := vpt.NewBalanced(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(K)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	run := func(iters int) error {
		return runtime.Run(w.Comms(), func(c runtime.Comm) error {
			buf := bytes.Repeat([]byte{byte(c.Rank())}, 512)
			for i := 0; i < iters; i++ {
				if _, err := core.Exchange(c, tp, map[int][]byte{(c.Rank() + 1) % K: buf}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := run(20); err != nil {
		t.Fatal(err)
	}
	minted := w.Ring().Stats().Minted
	if err := run(50); err != nil {
		t.Fatal(err)
	}
	after := w.Ring().Stats()
	if after.Minted != minted {
		t.Errorf("steady state minted buffers: %d -> %d", minted, after.Minted)
	}
	t.Logf("ring: %+v", after)
}

// TestSocketTeardown closes a world mid-traffic and checks goroutines and
// descriptors drain — the direct satellite check beyond the per-subtest
// checks tptest.Run performs.
func TestSocketTeardown(t *testing.T) {
	base := tptest.OpenFDs()
	for i := 0; i < 3; i++ {
		w, err := NewWorld(6)
		if err != nil {
			t.Fatal(err)
		}
		comms := w.Comms()
		done := make(chan struct{})
		go func() {
			defer close(done)
			comms[1].Recv(0, 0) // blocked until close
		}()
		if err := comms[0].Send(2, 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		w.Close()
		<-done
	}
	tptest.CheckNoLeakedFDs(t, base)
}

// TestRTOResendWithoutAcks drives rank 0 against a bare socket standing in
// for rank 1, so the test decides which acks exist. The first packet is
// acked, which takes the link back to idle; every ack after the link goes
// busy again is dropped, and the retransmit scan must still resend the
// unacked packet once its RTO expires.
func TestRTOResendWithoutAcks(t *testing.T) {
	conns, addrs, err := Bind(2)
	if err != nil {
		t.Fatal(err)
	}
	peer := conns[1]
	defer peer.Close()
	w, err := NewGroup(GroupConfig{Size: 2, Local: []int{0}, Conns: conns[:1], Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	a, sl := w.Comms()[0], w.local[0].sl[1]
	zero, err := net.ResolveUDPAddr("udp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}

	// readData waits for a data packet from rank 0 with sequence seq.
	buf := make([]byte, maxDatagram)
	readData := func(seq uint32) {
		t.Helper()
		if err := peer.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		for {
			n, err := peer.Read(buf)
			if err != nil {
				t.Fatalf("waiting for packet %d: %v", seq, err)
			}
			if h, _, err := parseDgram(buf[:n], 2); err == nil && h.kind == kindData && h.seq == seq {
				return
			}
		}
	}
	ack := func(cum uint32) {
		t.Helper()
		if _, err := peer.WriteToUDP(buildAck(make([]byte, maxDatagram), 1, cum, 0), zero); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle := func() {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); sl.busy.Load(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("link still busy after its last packet was acked")
			}
		}
	}

	if err := a.Send(1, 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	readData(0)
	ack(1)
	waitIdle()

	if err := a.Send(1, 1, []byte("second")); err != nil {
		t.Fatal(err)
	}
	readData(1)
	readData(1) // no ack: only the RTO scan can send it again
	var timeouts int64
	for _, l := range w.RankLinkStats(0) {
		timeouts += l.TimeoutResends
	}
	if timeouts == 0 {
		t.Error("packet 1 came back but no timeout resend was counted")
	}
	ack(2)
	waitIdle()
}
