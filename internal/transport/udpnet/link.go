package udpnet

import (
	"sync"
	"sync/atomic"
)

const (
	// window is the per-link sliding window: at most this many data
	// packets may be in flight (sent, unacked) on one directed link. 64
	// matches the ack bitmap width, so one ack describes the whole window.
	window = 64

	// backlogMax bounds sealed packets queued behind the window on one
	// link. App-side Send blocks when the backlog is full, which bounds
	// memory the way a TCP socket buffer does (backlogMax packets of
	// maxDatagram bytes ≈ 4 MiB per congested link, nothing when idle).
	backlogMax = 512
)

// pktSlot is one window entry on the send side: an in-flight data packet
// retained for retransmission until acked.
type pktSlot struct {
	buf []byte // ring buffer holding the encoded datagram; nil when free
	seq uint32

	acked  bool // selectively acked; buffer released, no resend needed
	queued bool // sitting in the sender's out queue (fresh send or resend)
	// resent marks a packet that has been queued for retransmission at
	// least once; Karn's rule excludes it from RTT sampling (the ack could
	// answer either transmission).
	resent bool
	// sending marks the buffer as pinned by an in-progress socket write.
	// An ack landing mid-write must not release the buffer under the
	// syscall — release is deferred via releaseAfterSend instead.
	sending          bool
	releaseAfterSend bool

	lastSend int64 // UnixNano of the last transmission attempt
}

// sendLink is the reliable outbound state for one directed (me → peer)
// link. Three parties touch it under mu: the application goroutine
// (Send appends chunks to the open packet and seals into the backlog),
// the sender goroutine (seals, claims window slots, transmits), and the
// receiver goroutine (processes acks, frees slots, reopens the window).
type sendLink struct {
	mu   sync.Mutex
	cond *sync.Cond // backlog-space waiters (application Send)

	peer int

	// open is the packet currently accepting chunks — the coalescing
	// point. Consecutive frames to the same peer land in one datagram
	// whenever the sender goroutine has not yet drained the link.
	open      []byte
	openCount int

	// backlog holds sealed packets awaiting a window slot, FIFO between
	// backlogHead and len(backlog) (the array is recycled once drained).
	backlog     [][]byte
	backlogHead int

	nextSeq uint32 // next sequence number to assign
	sndUna  uint32 // lowest unacked sequence number
	wnd     [window]pktSlot

	// busy mirrors sndUna != nextSeq. It is written under mu and read
	// without it, so the retransmit scan can pass over idle links
	// without taking their locks.
	busy atomic.Bool

	nextFrameID uint32 // per-link frame counter, stamped into chunks

	inFlush bool // registered in the sender's flush set (outQueue.mu)
	stalled bool // counted a credit stall since the last full drain

	// m is the per-peer wire metrics block shared with the matching
	// recvLink; nil when the world runs WithoutLinkStats.
	m *linkMetrics
}

func newSendLink(peer int, m *linkMetrics) *sendLink {
	l := &sendLink{peer: peer, m: m}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// inFlight reports the number of unacked packets, callers hold mu.
func (l *sendLink) inFlight() uint32 { return l.nextSeq - l.sndUna }

// slot returns the window slot for seq; callers hold mu and guarantee
// sndUna <= seq < nextSeq.
func (l *sendLink) slot(seq uint32) *pktSlot { return &l.wnd[seq%window] }

// recvLink is the inbound state for one directed (peer → me) link. The
// receiver goroutine owns the sequencing and reassembly fields outright;
// mu guards only the ack/hint state it shares with the sender goroutine
// (which encodes acks from it) and the application goroutine (which
// installs traffic hints).
type recvLink struct {
	peer int

	// --- receiver-goroutine-owned: packet sequencing ---

	expected uint32 // next in-order sequence number
	// pending stashes out-of-order packets (ring buffers, retained) at
	// seq%window until the gap before them fills.
	pending [window][]byte
	pendLen [window]int

	// --- receiver-goroutine-owned: frame reassembly ---
	// Packets are processed strictly in sequence order and the sender
	// fragments one frame at a time per link, so at most one frame is
	// ever partially assembled here.

	cur         []byte // frame under reassembly (msg arena), nil if none
	curGot      int
	curTag      int
	nextFrameID uint32

	mu sync.Mutex

	// --- under mu: ack state ---

	dirty         bool   // data arrived since the last ack decision
	ackQueued     bool   // an ack for this link sits in the out queue
	ackCum        uint32 // snapshot the sender goroutine encodes
	ackBm         uint64
	lastAckSent   uint32 // `expected` as of the last transmitted ack
	lastAckTime   int64  // UnixNano of the last transmitted ack
	stageComplete bool   // a hinted stage finished since the last ack

	// inDirty dedups the receiver's per-batch dirty list (receiver-owned).
	inDirty bool

	// --- under mu: schedule traffic hints ---

	// hint maps tag → frames expected from this peer for the stage using
	// that tag; nil means no schedule knowledge (ack per receive batch).
	hint map[int]int
	// hintGot counts delivered frames per tag, reset to zero as each
	// stage completes so repeated replays of the same schedule keep
	// working.
	hintGot map[int]int

	// m is the per-peer wire metrics block shared with the matching
	// sendLink; nil when the world runs WithoutLinkStats.
	m *linkMetrics
}

func newRecvLink(peer int, m *linkMetrics) *recvLink {
	return &recvLink{peer: peer, m: m}
}

// sackBitmap summarizes the out-of-order stash relative to expected: bit i
// set means packet expected+1+i has been received. Receiver goroutine only.
func (l *recvLink) sackBitmap() uint64 {
	var bm uint64
	for i := uint32(1); i < window; i++ {
		if l.pending[(l.expected+i)%window] != nil {
			bm |= 1 << (i - 1)
		}
	}
	return bm
}

// noteFrame records a delivered frame against the installed hint and
// reports whether it completed a hinted stage's inbound set from this
// peer. Called by the receiver goroutine with mu held.
func (l *recvLink) noteFrame(tag int) (completed bool) {
	if l.hint == nil {
		return false
	}
	want, ok := l.hint[tag]
	if !ok || want <= 0 {
		return false
	}
	l.hintGot[tag]++
	if l.hintGot[tag] < want {
		return false
	}
	l.hintGot[tag] = 0
	return true
}

// installHint swaps in a new per-tag expectation map, resetting progress.
func (l *recvLink) installHint(hint map[int]int) {
	l.mu.Lock()
	l.hint = hint
	if hint == nil {
		l.hintGot = nil
	} else {
		l.hintGot = make(map[int]int, len(hint))
	}
	l.mu.Unlock()
}
