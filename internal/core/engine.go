package core

import (
	"fmt"
	"time"

	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/telemetry"
)

// stageMachine is the one engine behind every exchange path: it executes a
// StageSchedule stage by stage — send the stage's frames, receive the
// stage's expected frames, repeat — and delegates everything front-end
// specific to four hooks. The machine owns frame encoding/decoding, the
// From/To misroute check, frame-buffer lifetime, the receive order, and
// the per-stage telemetry span; the hooks own routing semantics:
//
//   - outSubs(d, j, slot) supplies the submessages of the j-th outbound
//     frame of stage d (Exchange drains a forward buffer, Persistent fills
//     its learned slot list, DirectExchange wraps one payload, the census
//     drains its announcement buffers);
//   - onFrame(d, from, subs) consumes a validated inbound frame (Exchange
//     scatters into later-stage buffers, Persistent stages into its store,
//     DirectExchange appends the delivery, the census visits every
//     announcement before scattering it). It returns the payload bytes
//     delivered to this rank in the frame, feeding the stage probe;
//   - onStage(d, deliveredBytes), optional, fires at each stage boundary
//     (the occupancy probe of WithStageProbe);
//   - finish runs after the last stage, before the inbound frames are
//     recycled.
//
// There is one discipline. Each outbound frame is encoded into a pooled
// arena buffer and sent inline, in slot order (sendPooledFrame). Receives
// are served in arrival order (runtime.RecvPolicy over RecvAnyOf). Inbound
// frames are retained until the exchange ends: onFrame's submessages alias
// them, so finish must copy out (msg.CompactSubs) any payload that
// outlives the call.
type stageMachine struct {
	sched *StageSchedule
	tele  *telemetry.Rank
	// traffic, when set, is the schedule's per-stage traffic summary,
	// offered to the transport (runtime.HintTraffic) before the first
	// stage so schedule-aware transports can run zero-speculation flow
	// control. Front-ends pass a cached slice, keeping repeat runs
	// allocation-free.
	traffic []runtime.StageTraffic
	outSubs func(stage, slot int, s SendSlot) ([]msg.Submessage, error)
	onFrame func(stage, from int, subs []msg.Submessage) (deliveredBytes int, err error)
	onStage func(stage, deliveredBytes int)
	finish  func() error
}

// run executes the schedule on this rank's communicator. It is the only
// stage loop in the package: Exchange, DirectExchange, Persistent (learning
// and replay) and the discovery census all pass through here, and
// Replay.Run is the compiled specialization of the same structure.
func (sm *stageMachine) run(c runtime.Comm, me int) error {
	runtime.HintTraffic(c, sm.traffic)
	retains := runtime.SendRetains(c)
	recvs := 0
	for i := range sm.sched.Stages {
		recvs += len(sm.sched.Stages[i].RecvFrom)
	}
	retained := make([][]byte, 0, recvs) // received pooled frames, recycled on return
	defer func() {
		for _, b := range retained {
			msg.PutFrame(b)
		}
	}()
	var (
		decoded    msg.Message // DecodeInto scratch, reused across frames
		pol        runtime.RecvPolicy
		stageStart time.Time
	)
	for d := range sm.sched.Stages {
		st := &sm.sched.Stages[d]
		if sm.tele != nil {
			stageStart = time.Now()
		}

		for j := range st.Sends {
			slot := st.Sends[j]
			subs, err := sm.outSubs(d, j, slot)
			if err != nil {
				return err
			}
			if err := sendPooledFrame(c, me, slot.To, st.Tag, subs, retains); err != nil {
				return fmt.Errorf("core: rank %d stage %d send to %d: %w", me, d, slot.To, err)
			}
		}

		// Receive one frame per expected sender, whichever lands first. The
		// sender comes from the matcher, never from loop position, so the
		// misroute check is valid under any delivery order.
		pol.Reset(st.RecvFrom)
		stageDelivered := 0
		for pol.Outstanding() > 0 {
			from, raw, err := pol.Next(c, st.Tag)
			if raw != nil {
				retained = append(retained, raw)
			}
			if err != nil {
				return fmt.Errorf("core: rank %d stage %d recv: %w", me, d, err)
			}
			if derr := msg.DecodeInto(&decoded, raw); derr != nil {
				return fmt.Errorf("core: rank %d stage %d frame from %d: %w", me, d, from, derr)
			}
			if decoded.From != from || decoded.To != me {
				return fmt.Errorf("core: rank %d stage %d: misrouted frame %d->%d arrived from %d",
					me, d, decoded.From, decoded.To, from)
			}
			delivered, err := sm.onFrame(d, from, decoded.Subs)
			if err != nil {
				return err
			}
			stageDelivered += delivered
		}
		if sm.onStage != nil {
			sm.onStage(d, stageDelivered)
		}
		if sm.tele != nil {
			stageStart = sm.tele.SpanMark(telemetry.KStage, d, stageStart)
		}
	}
	// finish runs before the deferred frame recycle: delivered payloads that
	// alias retained frames are still intact here.
	return sm.finish()
}

// sendPooledFrame encodes one frame into a pooled arena buffer and hands it
// to the transport, recycling the buffer immediately when the transport does
// not retain it (runtime.SendRetains); on retaining transports the receiving
// rank recycles it instead.
func sendPooledFrame(c runtime.Comm, me, to, tag int, subs []msg.Submessage, retains bool) error {
	m := msg.Message{From: me, To: to, Subs: subs}
	buf := msg.Encode(msg.GetFrameCap(msg.EncodedSize(&m)), &m)
	err := c.Send(to, tag, buf)
	if !retains {
		msg.PutFrame(buf)
	}
	return err
}
