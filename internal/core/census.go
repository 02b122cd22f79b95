package core

import (
	"fmt"

	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/vpt"
)

// Census is the stage-machine front-end of the dynamic-discovery census
// (dynamic.Discover): the topology schedule with stage d retagged onto
// CensusTag(d), so a census can interleave with payload exchanges on the
// same communicator. seeds are this rank's own submessages (Src this rank,
// Dst another rank); they ride exactly the dimension-ordered routes a
// payload exchange would give them, one (possibly empty) frame per
// neighbor per stage. visit sees every submessage this rank receives,
// whether delivered here or passing through, before it is routed on. Its
// Data aliases a pooled frame and is valid only during the call; a visit
// error aborts the census. Census is collective: every rank of the world
// must call it.
func Census(c runtime.Comm, t *vpt.Topology, seeds []msg.Submessage, visit func(stage int, sub msg.Submessage) error) error {
	me := c.Rank()
	if t.Size() != c.Size() {
		return fmt.Errorf("core: topology size %d != communicator size %d", t.Size(), c.Size())
	}
	fb := msg.NewForwardBuffers(t.Dims())
	for _, s := range seeds {
		if s.Src != me || s.Dst < 0 || s.Dst >= t.Size() || s.Dst == me {
			return fmt.Errorf("core: rank %d: census seed %d->%d is not an outbound pair", me, s.Src, s.Dst)
		}
		d := t.FirstDiff(me, s.Dst)
		fb.Put(d, t.Digit(s.Dst, d), s)
	}
	sched := buildTopologySchedule(t, me)
	for d := range sched.Stages {
		sched.Stages[d].Tag = CensusTag(d)
	}
	var here Delivered // scatter scratch: deliveries were already visited
	sm := &stageMachine{
		sched: sched,
		outSubs: func(d, _ int, slot SendSlot) ([]msg.Submessage, error) {
			return fb.Take(d, t.Digit(slot.To, d)), nil
		},
		onFrame: func(d, _ int, subs []msg.Submessage) (int, error) {
			for _, sub := range subs {
				if err := visit(d, sub); err != nil {
					return 0, err
				}
			}
			here.Subs = here.Subs[:0]
			return scatterFrame(t, me, d, fb, &here, subs, nil)
		},
		finish: func() error {
			if left := fb.SubCount(); left != 0 {
				return fmt.Errorf("core: rank %d: %d census submessages left undelivered", me, left)
			}
			return nil
		},
	}
	return sm.run(c, me)
}
