package main

import (
	"sync"
	"time"

	"stfw/internal/core"
	"stfw/internal/runtime"
)

// spanKind names the call a span covers. The step is the root span; each
// rank's layer call is a child of the step; each wrapped transport call is
// a child of the layer call that issued it.
type spanKind uint8

const (
	kMultiply spanKind = iota
	kCG
	kDiscover
	kPatch
	kPatchCompiled
	kReplay
	kSend
	kRecv
	kBarrier
	numKinds
)

var kindNames = [numKinds]string{"Multiply", "CG", "Discover", "Patch", "PatchCompiled", "Replay.Run", "send", "recv", "barrier"}

func (k spanKind) transport() bool { return k >= kSend }

// tagClass attributes a transport call to the layer that owns its tag.
type tagClass uint8

const (
	clsStage      tagClass = iota // core exchange stages and the direct-exchange tag
	clsCensus                     // dynamic.Discover's census stages
	clsCollective                 // every tag outside the exchange span: the collectives package
	numClasses
)

var classNames = [numClasses]string{"stage", "census", "collectives"}

// span is one recorded call. Times are nanoseconds since the tracer's
// epoch; stage is the exchange stage of a clsStage transport call, else -1.
type span struct {
	start, end int64
	bytes      int32
	stage      int16
	kind       spanKind
	class      tagClass
}

// note is a per-rank scalar observed during a step: a counter the program
// exposes (Session.Timings deltas, CG iterations, PatchStats).
type note struct {
	key   noteKey
	value float64
}

type noteKey uint8

const (
	nGather noteKey = iota
	nExchange
	nKernel
	nIters
	nDirtyStages
	numNotes
)

// rankLog holds one rank's spans and notes for the current step. A rank
// can issue transport calls from two goroutines (the exchange engine's
// send worker), hence the lock.
type rankLog struct {
	mu    sync.Mutex
	spans []span
	notes []note
}

// tracer records spans in memory. The driver reduces and clears the logs
// after every step, outside the step's timing, so memory stays bounded by
// one step's spans; the raw spans of the first keepSteps steps are kept
// and written out at the end.
type tracer struct {
	epoch     time.Time
	maxStages int
	ranks     []rankLog
	kept      []keptStep
}

// keptStep is the raw record of one traced step, written to the spans
// file. Each span is [kind, class, stage, start_ns, end_ns, bytes] with
// kind and class indexing spanFile's name lists.
type keptStep struct {
	Step  int          `json:"step"`
	Start int64        `json:"start_ns"`
	End   int64        `json:"end_ns"`
	Ranks [][][6]int64 `json:"ranks"`
	Notes [][]noteJSON `json:"notes"`
}

type noteJSON struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// spanFile is what a traced run writes out.
type spanFile struct {
	Kinds   []string   `json:"kinds"`
	Classes []string   `json:"classes"`
	Fields  []string   `json:"fields"`
	Steps   []keptStep `json:"steps"`
}

func (t *tracer) file() spanFile {
	return spanFile{
		Kinds:   kindNames[:],
		Classes: classNames[:],
		Fields:  []string{"kind", "class", "stage", "start_ns", "end_ns", "bytes"},
		Steps:   t.kept,
	}
}

var noteNames = [numNotes]string{"spmv.gather_ns", "spmv.exchange_ns", "spmv.kernel_ns", "cg.iters", "core.dirty_stages"}

// keepSteps is how many traced steps' raw spans are written out: two make
// one churn cycle (a removing and a re-adding epoch).
const keepSteps = 2

func newTracer(k, maxStages int) *tracer {
	return &tracer{epoch: time.Now(), maxStages: maxStages, ranks: make([]rankLog, k)}
}

// now returns the tracer clock; a nil tracer (untraced run) reads 0 so call
// sites need no branches.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// layer records rank r's layer call that started at start and ends now.
func (t *tracer) layer(r int, k spanKind, start int64) {
	if t == nil {
		return
	}
	t.add(r, span{start: start, end: t.now(), stage: -1, kind: k})
}

// note records a per-rank observation for the current step.
func (t *tracer) note(r int, k noteKey, v float64) {
	if t == nil {
		return
	}
	l := &t.ranks[r]
	l.mu.Lock()
	l.notes = append(l.notes, note{key: k, value: v})
	l.mu.Unlock()
}

func (t *tracer) add(r int, s span) {
	l := &t.ranks[r]
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// classify maps a tag to its owning layer and, for exchange stages, the
// stage index.
func (t *tracer) classify(tag int) (tagClass, int16) {
	if d, ok := core.TagStage(tag, t.maxStages); ok {
		return clsStage, int16(d)
	}
	if lo, hi := core.AppTagSpan(t.maxStages); tag >= lo && tag < hi {
		return clsCensus, -1
	}
	return clsCollective, -1
}

// take hands the driver every rank's spans and notes of the finished step
// and clears the logs; a negative step discards what set-up recorded. The
// step's ranks have all returned, so nothing is writing; the locks order
// their writes before these reads.
func (t *tracer) take(step int, start, end int64, spans [][]span, notes [][]note) ([][]span, [][]note) {
	for r := range t.ranks {
		l := &t.ranks[r]
		l.mu.Lock()
		spans[r] = append(spans[r][:0], l.spans...)
		notes[r] = append(notes[r][:0], l.notes...)
		l.spans, l.notes = l.spans[:0], l.notes[:0]
		l.mu.Unlock()
	}
	if step >= 0 && len(t.kept) < keepSteps {
		ks := keptStep{Step: step, Start: start, End: end, Ranks: make([][][6]int64, len(spans)), Notes: make([][]noteJSON, len(notes))}
		for r := range spans {
			for _, s := range spans[r] {
				ks.Ranks[r] = append(ks.Ranks[r], [6]int64{int64(s.kind), int64(s.class), int64(s.stage), s.start, s.end, int64(s.bytes)})
			}
			for _, n := range notes[r] {
				ks.Notes[r] = append(ks.Notes[r], noteJSON{Key: noteNames[n.key], Value: n.value})
			}
		}
		t.kept = append(t.kept, ks)
	}
	return spans, notes
}

// tracedComm times every transport call of one rank. It forwards each
// optional runtime seam the wrapped comm implements (arrival-order receive,
// send retention, traffic hints, link stats, reserved tags), so engines and
// transports behave exactly as without it: udpnet keeps its flow-control
// hints and hier still sees the sub-transport's reserved tags.
type tracedComm struct {
	runtime.Comm
	t    *tracer
	rank int
}

func wrapComms(t *tracer, comms []runtime.Comm) []runtime.Comm {
	out := make([]runtime.Comm, len(comms))
	for i, c := range comms {
		out[i] = &tracedComm{Comm: c, t: t, rank: c.Rank()}
	}
	return out
}

func (c *tracedComm) record(k spanKind, tag, bytes int, start int64) {
	cls, stage := c.t.classify(tag)
	c.t.add(c.rank, span{start: start, end: c.t.now(), bytes: int32(bytes), stage: stage, kind: k, class: cls})
}

func (c *tracedComm) Send(to, tag int, payload []byte) error {
	n := len(payload)
	start := c.t.now()
	err := c.Comm.Send(to, tag, payload)
	c.record(kSend, tag, n, start)
	return err
}

func (c *tracedComm) Recv(from, tag int) ([]byte, error) {
	start := c.t.now()
	payload, err := c.Comm.Recv(from, tag)
	c.record(kRecv, tag, len(payload), start)
	return payload, err
}

// RecvAnyOf forwards arrival-order receives; over a comm without them it
// reports runtime.ErrNoRecvAny so runtime.RecvAnyOf falls back to the
// traced Recv, exactly as it would on the bare comm.
func (c *tracedComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	ar, ok := c.Comm.(runtime.AnyReceiver)
	if !ok {
		return -1, nil, runtime.ErrNoRecvAny
	}
	start := c.t.now()
	sender, payload, err := ar.RecvAnyOf(tag, from)
	c.record(kRecv, tag, len(payload), start)
	return sender, payload, err
}

func (c *tracedComm) Barrier() error {
	start := c.t.now()
	err := c.Comm.Barrier()
	c.t.add(c.rank, span{start: start, end: c.t.now(), stage: -1, kind: kBarrier, class: clsCollective})
	return err
}

func (c *tracedComm) SendRetains() bool { return runtime.SendRetains(c.Comm) }

func (c *tracedComm) HintTraffic(stages []runtime.StageTraffic) {
	runtime.HintTraffic(c.Comm, stages)
}

func (c *tracedComm) LinkStats() []runtime.LinkStats { return runtime.LinkStatsOf(c.Comm) }

// ReservedTags reports the wrapped comm's reservation; lo >= hi (none)
// when it declares none, which runtime.ReservedTagsOf reads as absent.
func (c *tracedComm) ReservedTags() (lo, hi int) {
	lo, hi, _ = runtime.ReservedTagsOf(c.Comm)
	return lo, hi
}
