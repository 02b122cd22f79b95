// Package chanpt implements the runtime.Comm interface in-process: one
// receive-side frame matcher per rank, protected by a mutex, into which
// senders append frames in arrival order. It executes the real
// store-and-forward algorithm with real payloads entirely inside one OS
// process, which makes whole-world runs with thousands of ranks cheap enough
// for tests and benchmarks.
//
// The transport is zero-copy: Send hands the payload slice itself to the
// receiving rank (SendRetains reports true), and the matcher supports
// arrival-order receives (runtime.AnyReceiver), so the stage engine can
// process whichever neighbor's frame lands first.
package chanpt

import (
	"fmt"
	"sync"

	"stfw/internal/runtime"
)

type frame struct {
	from    int
	tag     int
	payload []byte
}

// inbox is one rank's receive-side matcher: undelivered frames in arrival
// order, plus per-sender occupancy counts that bound how far a sender may
// run ahead (the world's buffer parameter, mirroring a bounded mailbox).
type inbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	frames  []frame
	queued  []int // queued[from] = frames currently buffered from that rank
	waiters int   // goroutines blocked in cond.Wait; skip Broadcast when 0
	closed  bool  // world torn down; blocked operations fail instead of waiting
}

// wait blocks on the matcher's condition, tracking the waiter count so
// state changes with nobody blocked skip the Broadcast entirely (the
// common case on the exchange hot path).
func (ib *inbox) wait() {
	ib.waiters++
	ib.cond.Wait()
	ib.waiters--
}

func (ib *inbox) wake() {
	if ib.waiters > 0 {
		ib.cond.Broadcast()
	}
}

func newInbox(worldSize int) *inbox {
	ib := &inbox{queued: make([]int, worldSize)}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

// pop removes frame i and wakes blocked senders and receivers.
func (ib *inbox) pop(i int) []byte {
	f := ib.frames[i]
	ib.frames = append(ib.frames[:i], ib.frames[i+1:]...)
	ib.queued[f.from]--
	ib.wake()
	return f.payload
}

// World owns the matchers shared by all rank endpoints.
type World struct {
	size    int
	buffer  int
	inboxes []*inbox
	barrier *runtime.Barrier
}

// NewWorld creates a world of size ranks. buffer is the per-sender-pair
// matcher capacity; the stage-synchronous store-and-forward schedule needs
// capacity 1 to avoid blocking sends, but larger values are accepted.
func NewWorld(size, buffer int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("chanpt: world size %d < 1", size)
	}
	if buffer < 1 {
		buffer = 1
	}
	w := &World{size: size, buffer: buffer, barrier: runtime.NewBarrier(size)}
	w.inboxes = make([]*inbox, size)
	for i := range w.inboxes {
		w.inboxes[i] = newInbox(size)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Close tears the world down: every operation that would block — a receive
// with no matching frame, a send against a full matcher — fails from now
// on, and currently blocked ones are woken with an error. Frames already
// queued stay receivable, so a closing world can still be drained. Close
// exists for composite transports (internal/transport/hier) whose helper
// goroutines may be parked in a receive when the world is torn down; a
// plain single-world run never needs it.
func (w *World) Close() {
	for _, ib := range w.inboxes {
		ib.mu.Lock()
		ib.closed = true
		ib.cond.Broadcast()
		ib.mu.Unlock()
	}
}

// Comms returns one communicator per rank, index = rank.
func (w *World) Comms() []runtime.Comm {
	cs := make([]runtime.Comm, w.size)
	for r := range cs {
		cs[r] = &comm{world: w, rank: r}
	}
	return cs
}

// Run executes fn on every rank of this world.
func (w *World) Run(fn runtime.RankFunc) error { return runtime.Run(w.Comms(), fn) }

type comm struct {
	world *World
	rank  int
}

func (c *comm) Rank() int { return c.rank }
func (c *comm) Size() int { return c.world.size }

// SendRetains reports true: the payload slice is handed to the receiving
// rank without copying, which then owns it.
func (c *comm) SendRetains() bool { return true }

func (c *comm) Send(to, tag int, payload []byte) error {
	if to < 0 || to >= c.world.size {
		return fmt.Errorf("chanpt: send to rank %d out of range [0,%d)", to, c.world.size)
	}
	ib := c.world.inboxes[to]
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for ib.queued[c.rank] >= c.world.buffer {
		if ib.closed {
			return fmt.Errorf("chanpt: send to rank %d on closed world", to)
		}
		ib.wait()
	}
	if ib.closed {
		return fmt.Errorf("chanpt: send to rank %d on closed world", to)
	}
	ib.frames = append(ib.frames, frame{from: c.rank, tag: tag, payload: payload})
	ib.queued[c.rank]++
	ib.wake()
	return nil
}

func (c *comm) Recv(from, tag int) ([]byte, error) {
	if from < 0 || from >= c.world.size {
		return nil, fmt.Errorf("chanpt: recv from rank %d out of range [0,%d)", from, c.world.size)
	}
	ib := c.world.inboxes[c.rank]
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		for i := range ib.frames {
			if ib.frames[i].from != from {
				continue
			}
			// Frames between a fixed pair are matched in send order, so a
			// tag mismatch on the oldest frame is a protocol error, not a
			// frame to skip.
			if got := ib.frames[i].tag; got != tag {
				return nil, fmt.Errorf("chanpt: rank %d received tag %d from %d, expected %d", c.rank, got, from, tag)
			}
			return ib.pop(i), nil
		}
		if ib.closed {
			return nil, fmt.Errorf("chanpt: rank %d recv from %d on closed world", c.rank, from)
		}
		ib.wait()
	}
}

// RecvAnyOf implements runtime.AnyReceiver: it returns the earliest-arrived
// queued frame carrying tag whose sender is in from, blocking until one
// exists. Frames with other tags or from other ranks stay queued (they
// belong to a later stage or a later exchange).
func (c *comm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	if len(from) == 0 {
		return -1, nil, fmt.Errorf("chanpt: rank %d RecvAnyOf with no candidate senders", c.rank)
	}
	for _, f := range from {
		if f < 0 || f >= c.world.size {
			return -1, nil, fmt.Errorf("chanpt: recv from rank %d out of range [0,%d)", f, c.world.size)
		}
	}
	ib := c.world.inboxes[c.rank]
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		for i := range ib.frames {
			if ib.frames[i].tag != tag {
				continue
			}
			sender := ib.frames[i].from
			for _, f := range from {
				if f == sender {
					return sender, ib.pop(i), nil
				}
			}
		}
		if ib.closed {
			return -1, nil, fmt.Errorf("chanpt: rank %d RecvAnyOf on closed world", c.rank)
		}
		ib.wait()
	}
}

func (c *comm) Barrier() error {
	c.world.barrier.Await()
	return nil
}
