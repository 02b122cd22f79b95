package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"stfw/internal/core"
	"stfw/internal/dynamic"
	"stfw/internal/iterative"
	"stfw/internal/partition"
	"stfw/internal/runtime"
	"stfw/internal/sparse"
	"stfw/internal/spmv"
	"stfw/internal/telemetry"
	"stfw/internal/vpt"
)

// workload is one named input and step. The names are fixed: later changes
// cite them when they claim a gain.
type workload struct {
	name, why string
	transport transportKind
	// generate builds the inputs from the seed; it is not part of set-up.
	generate func(seed int64) (instance, error)
}

var workloads = []workload{
	{
		name:      "spmv-hotspot-chan",
		why:       "hot-spot SpMV over in-process channels: transport cost is near zero, so the compiled replay, spmv kernel, frame pool and goroutine hand-off dominate",
		transport: overChanpt,
		generate:  func(seed int64) (instance, error) { return newSpmvInstance(seed, overChanpt, vpt.MustNew(4, 4, 4)) },
	},
	{
		name:      "cg-powerlaw-udp",
		why:       "CG time-to-solution on the irregular power-law pattern over loopback udpnet: the wire path and the allreduces dominate",
		transport: overUDP,
		generate:  func(seed int64) (instance, error) { return newCGInstance(seed) },
	},
	{
		name:      "churn-chan",
		why:       "pattern churn: census, schedule patch and compiled re-lower beside compiled replays, the learned schedule's write path next to its read path",
		transport: overChanpt,
		generate:  func(seed int64) (instance, error) { return newChurnInstance(seed) },
	},
	{
		name:      "spmv-hotspot-hier",
		why:       "the hot-spot SpMV on a simulated two-node split through the hier mux: against spmv-hotspot-chan it isolates mux and cross-node wire cost",
		transport: overHier,
		generate:  func(seed int64) (instance, error) { return newSpmvInstance(seed, overHier, vpt.MustNew(32, 2)) },
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// phases is the set-up time split by layer. A workload leaves a phase zero
// when it has none.
type phases struct {
	partition, pattern, world, session, learn time.Duration
}

func (p phases) total() time.Duration {
	return p.partition + p.pattern + p.world + p.session + p.learn
}

// setupOpts selects the instrumentation of a world: tr wraps every comm in
// the tracing wrapper, tel (SpMV workloads only) turns on the program's own
// telemetry, Options.Telemetry plus its counting comm wrappers.
type setupOpts struct {
	tr  *tracer
	tel *telemetry.Registry
}

type instance interface {
	// setup takes the generated inputs to the first steady step.
	setup(o setupOpts, ph *phases) (stepper, error)
	// serial runs the same problem once in plain single-threaded code and
	// returns its wall time; it also fills the reference outputs checks use.
	serial() (time.Duration, error)
	// plan returns the regularized plan of the workload's exchange and the
	// send sets it realizes, valid after setup.
	plan() (*core.Plan, *core.SendSets, error)
	topology() *vpt.Topology
}

type stepper interface {
	// step runs one world-wide operation on every rank.
	step() error
	// check verifies the outputs of the last step; it runs outside the
	// step's timing.
	check() error
	comms() []runtime.Comm
	close()
}

// world is the part every stepper shares: comms, rank goroutines, and the
// tracer recording their calls.
type world struct {
	cs         []runtime.Comm
	p          *pool
	closeWorld func()
	tr         *tracer
}

func startWorld(kind transportKind, o setupOpts, stages int) (*world, error) {
	cs, closeWorld, err := newWorld(kind)
	if err != nil {
		return nil, err
	}
	if o.tr != nil {
		cs = wrapComms(o.tr, cs)
	}
	if o.tel != nil {
		cs = o.tel.WrapComms(cs, func(tag int) (int, bool) { return core.TagStage(tag, stages) })
	}
	return &world{cs: cs, p: newPool(K), closeWorld: closeWorld, tr: o.tr}, nil
}

func (w *world) comms() []runtime.Comm { return w.cs }

func (w *world) close() {
	w.p.stop()
	w.closeWorld()
}

func timed(d *time.Duration, fn func() error) error {
	t := time.Now()
	err := fn()
	*d = time.Since(t)
	return err
}

func randomVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// catalogMatrix generates a Table-1 analog with the workload seed in place
// of the catalog's name-derived one.
func catalogMatrix(name string, scale int, seed int64) (*sparse.CSR, error) {
	e, err := sparse.Lookup(name)
	if err != nil {
		return nil, err
	}
	p := sparse.ScaleParams(e.Params, scale)
	p.Seed = seed
	return sparse.Generate(p)
}

// partitionAndPattern is the shared first half of the matrix workloads'
// set-up: a greedy K-way row partition and the SpMV exchange pattern.
func partitionAndPattern(a *sparse.CSR, ph *phases) (*partition.Partition, *spmv.Pattern, error) {
	var part *partition.Partition
	var pat *spmv.Pattern
	err := timed(&ph.partition, func() (err error) {
		part, err = partition.Greedy(a, K, partition.DefaultGreedy())
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = timed(&ph.pattern, func() (err error) {
		pat, err = spmv.BuildPattern(a, part)
		return err
	})
	return part, pat, err
}

func patternPlan(t *vpt.Topology, pat *spmv.Pattern) (*core.Plan, *core.SendSets, error) {
	sends, err := pat.SendSets()
	if err != nil {
		return nil, nil, err
	}
	p, err := core.BuildPlan(t, sends)
	return p, sends, err
}

// --- spmv-hotspot-chan, spmv-hotspot-hier --------------------------------

// spmvTol is the tolerance spmv's parallel-vs-serial tests compare with.
const spmvTol = 1e-9

type spmvInstance struct {
	kind transportKind
	topo *vpt.Topology
	a    *sparse.CSR
	x    []float64
	want []float64 // serial A*x
	pat  *spmv.Pattern
}

// newSpmvInstance generates the gupta2 analog at scale 8 (7,758 rows, a
// few dense hub rows: the hot-spot regime where BL's max message count is
// near K).
func newSpmvInstance(seed int64, kind transportKind, t *vpt.Topology) (*spmvInstance, error) {
	a, err := catalogMatrix("gupta2", 8, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	return &spmvInstance{kind: kind, topo: t, a: a, x: randomVector(rng, a.Cols)}, nil
}

func (s *spmvInstance) topology() *vpt.Topology { return s.topo }

func (s *spmvInstance) serial() (time.Duration, error) {
	var d time.Duration
	err := timed(&d, func() (err error) {
		s.want, err = s.a.MulVec(s.want, s.x)
		return err
	})
	return d, err
}

func (s *spmvInstance) plan() (*core.Plan, *core.SendSets, error) { return patternPlan(s.topo, s.pat) }

type spmvStepper struct {
	*world
	in   *spmvInstance
	sess []*spmv.Session
	y    [][]float64
	prev []spmv.PhaseTimings
}

func (s *spmvInstance) setup(o setupOpts, ph *phases) (stepper, error) {
	part, pat, err := partitionAndPattern(s.a, ph)
	if err != nil {
		return nil, err
	}
	s.pat = pat
	var w *world
	if err := timed(&ph.world, func() (err error) {
		w, err = startWorld(s.kind, o, s.topo.N())
		return err
	}); err != nil {
		return nil, err
	}
	st := &spmvStepper{world: w, in: s, sess: make([]*spmv.Session, K), y: make([][]float64, K), prev: make([]spmv.PhaseTimings, K)}
	opt := spmv.Options{Method: spmv.STFW, Topo: s.topo, Telemetry: o.tel}
	err = timed(&ph.session, func() error {
		return w.p.run(func(r int) (err error) {
			st.sess[r], err = spmv.NewSession(w.cs[r], s.a, part, pat, opt)
			return err
		})
	})
	if err == nil {
		// The first multiply is the STFW learning run; it compiles the
		// learned layout every later multiply replays.
		err = timed(&ph.learn, func() error {
			return w.p.run(func(r int) error {
				_, err := st.sess[r].Multiply(s.x)
				st.prev[r] = st.sess[r].Timings()
				return err
			})
		})
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *spmvStepper) step() error {
	return st.p.run(func(r int) error {
		t0 := st.tr.now()
		y, err := st.sess[r].Multiply(st.in.x)
		st.tr.layer(r, kMultiply, t0)
		if err != nil {
			return err
		}
		st.y[r] = y
		if st.tr != nil {
			tm := st.sess[r].Timings()
			st.tr.note(r, nGather, float64(tm.Gather-st.prev[r].Gather))
			st.tr.note(r, nExchange, float64(tm.Exchange-st.prev[r].Exchange))
			st.tr.note(r, nKernel, float64(tm.Kernel-st.prev[r].Kernel))
			st.prev[r] = tm
		}
		return nil
	})
}

func (st *spmvStepper) check() error {
	for r, sess := range st.sess {
		for _, i := range sess.OwnedRows() {
			got, want := st.y[r][i], st.in.want[i]
			if math.Abs(got-want) > spmvTol*(1+math.Abs(want)) {
				return fmt.Errorf("rank %d: y[%d] = %g, serial CSR.MulVec gives %g", r, i, got, want)
			}
		}
	}
	return nil
}

// --- cg-powerlaw-udp ------------------------------------------------------

// cgTol is the relative residual the solve runs to.
const cgTol = 1e-8

type cgInstance struct {
	topo     *vpt.Topology
	a        *sparse.CSR
	b        []float64
	xRef     []float64 // SerialCG solution
	refIters int
	part     *partition.Partition
	pat      *spmv.Pattern
}

// newCGInstance makes the coAuthorsDBLP analog at scale 8 (37,383 rows,
// power-law degrees: BL's max message count is several times its average)
// symmetric positive definite.
func newCGInstance(seed int64) (*cgInstance, error) {
	base, err := catalogMatrix("coAuthorsDBLP", 8, seed)
	if err != nil {
		return nil, err
	}
	a, err := sparse.DiagonallyDominant(base, 2)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	return &cgInstance{topo: vpt.MustNew(4, 4, 4), a: a, b: randomVector(rng, a.Rows)}, nil
}

func (s *cgInstance) topology() *vpt.Topology { return s.topo }

func (s *cgInstance) serial() (time.Duration, error) {
	var d time.Duration
	err := timed(&d, func() (err error) {
		s.xRef, s.refIters, err = iterative.SerialCG(s.a, s.b, 0, cgTol)
		return err
	})
	return d, err
}

func (s *cgInstance) plan() (*core.Plan, *core.SendSets, error) { return patternPlan(s.topo, s.pat) }

type cgStepper struct {
	*world
	in  *cgInstance
	res []*iterative.CGResult
}

// setup has no session phase: iterative.CG builds and learns its SpMV
// session inside every solve, so that cost is part of each step.
func (s *cgInstance) setup(o setupOpts, ph *phases) (stepper, error) {
	part, pat, err := partitionAndPattern(s.a, ph)
	if err != nil {
		return nil, err
	}
	s.part, s.pat = part, pat
	var w *world
	if err := timed(&ph.world, func() (err error) {
		w, err = startWorld(overUDP, o, s.topo.N())
		return err
	}); err != nil {
		return nil, err
	}
	return &cgStepper{world: w, in: s, res: make([]*iterative.CGResult, K)}, nil
}

func (st *cgStepper) step() error {
	opt := iterative.CGOptions{Tol: cgTol, Comm: spmv.Options{Method: spmv.STFW, Topo: st.in.topo}}
	return st.p.run(func(r int) (err error) {
		t0 := st.tr.now()
		st.res[r], err = iterative.CG(st.cs[r], st.in.a, st.in.part, st.in.pat, st.in.b, opt)
		st.tr.layer(r, kCG, t0)
		if err == nil {
			st.tr.note(r, nIters, float64(st.res[r].Iters))
		}
		return err
	})
}

func (st *cgStepper) check() error {
	xs := make([][]float64, K)
	for r, res := range st.res {
		if !res.Converged || res.Residual >= cgTol {
			return fmt.Errorf("rank %d: residual %g after %d iterations, want < %g", r, res.Residual, res.Iters, cgTol)
		}
		if res.Iters != st.in.refIters {
			return fmt.Errorf("rank %d: %d iterations, SerialCG takes %d", r, res.Iters, st.in.refIters)
		}
		xs[r] = res.X
	}
	x, err := spmv.Reduce(st.in.part, xs)
	if err != nil {
		return err
	}
	var diff, norm float64
	for i, v := range st.in.xRef {
		diff += (x[i] - v) * (x[i] - v)
		norm += v * v
	}
	if rel := math.Sqrt(diff / norm); rel > cgTol {
		return fmt.Errorf("solution differs from SerialCG's by %g (relative), want <= %g", rel, cgTol)
	}
	return nil
}

// --- churn-chan -----------------------------------------------------------

const (
	churnDests    = 8   // destinations per rank
	churnXlen     = 256 // words in each rank's source vector
	churnReplays  = 8   // compiled replays per epoch
	churnToggleFr = 0.015
)

type pair struct{ src, dst int }

// churnInstance is a seeded irregular pattern and the pairs each epoch
// toggles. State 0 is the full pattern, state 1 lacks the toggled pairs;
// epochs alternate between them, so every epoch patches the same amount.
type churnInstance struct {
	topo    *vpt.Topology
	pairs   map[pair]int // payload bytes per pair, full pattern
	toggles []pair
	xs      [churnReplays][][]float64 // per replay, per rank source vector
	// Built by set-up's pattern phase.
	payloads []map[int][]byte
	gathers  [2][]map[int][]int32 // per state, per rank
	deltas   [2][]dynamic.Delta   // [0]: into state 0 (re-add), [1]: into state 1 (remove)
	// want[state][replay][rank] is the halo the rank must receive.
	want [2][churnReplays][][]float64
}

func newChurnInstance(seed int64) (*churnInstance, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &churnInstance{topo: vpt.MustNew(4, 4, 4), pairs: map[pair]int{}}
	for src := 0; src < K; src++ {
		for n := 0; n < churnDests; {
			dst := rng.Intn(K)
			if dst == src {
				continue
			}
			if _, dup := s.pairs[pair{src, dst}]; dup {
				continue
			}
			s.pairs[pair{src, dst}] = 8 * (32 + rng.Intn(225)) // 256..2048 bytes
			n++
		}
	}
	sorted := sortedPairs(s.pairs)
	rng.Shuffle(len(sorted), func(i, j int) { sorted[i], sorted[j] = sorted[j], sorted[i] })
	s.toggles = sorted[:int(math.Ceil(churnToggleFr*float64(len(sorted))))]
	for i := range s.xs {
		s.xs[i] = make([][]float64, K)
		for r := range s.xs[i] {
			x := make([]float64, churnXlen)
			for j := range x {
				x[j] = float64((r*churnXlen+j)*churnReplays + i)
			}
			s.xs[i][r] = x
		}
	}
	return s, nil
}

func sortedPairs(m map[pair]int) []pair {
	out := make([]pair, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].src != out[j].src {
			return out[i].src < out[j].src
		}
		return out[i].dst < out[j].dst
	})
	return out
}

func (s *churnInstance) topology() *vpt.Topology { return s.topo }

// gatherIdx is the source-vector index list the payload of pair p carries.
func gatherIdx(p pair, bytes int) []int32 {
	idx := make([]int32, bytes/8)
	for i := range idx {
		idx[i] = int32((p.src*29 + p.dst*13 + i*7) % churnXlen)
	}
	return idx
}

// statePairs returns the pairs live in a state.
func (s *churnInstance) statePairs(state int) map[pair]int {
	live := make(map[pair]int, len(s.pairs))
	for p, n := range s.pairs {
		live[p] = n
	}
	if state == 1 {
		for _, p := range s.toggles {
			delete(live, p)
		}
	}
	return live
}

// serial computes, in plain single-threaded code, what every rank must
// receive in each replay of both states: the payloads destined to it in
// sorted source order. Its time is that of one epoch's replays.
func (s *churnInstance) serial() (time.Duration, error) {
	t := time.Now()
	for state := range s.want {
		live := sortedPairs(s.statePairs(state))
		for i := range s.want[state] {
			halos := make([][]float64, K)
			for _, p := range live {
				x := s.xs[i][p.src]
				for _, g := range gatherIdx(p, s.pairs[p]) {
					halos[p.dst] = append(halos[p.dst], x[g])
				}
			}
			s.want[state][i] = halos
		}
	}
	return time.Since(t) / 2, nil
}

func (s *churnInstance) plan() (*core.Plan, *core.SendSets, error) {
	sends := core.NewSendSets(K)
	for p, n := range s.pairs {
		sends.Add(p.src, p.dst, int64(n/8))
	}
	if err := sends.Normalize(); err != nil {
		return nil, nil, err
	}
	p, err := core.BuildPlan(s.topo, sends)
	return p, sends, err
}

// buildPattern derives every rank's payloads, gather lists and census
// deltas from the pair list.
func (s *churnInstance) buildPattern() {
	s.payloads = make([]map[int][]byte, K)
	for r := range s.payloads {
		s.payloads[r] = map[int][]byte{}
	}
	for p, n := range s.pairs {
		s.payloads[p.src][p.dst] = make([]byte, n)
	}
	for state := range s.gathers {
		g := make([]map[int][]int32, K)
		for r := range g {
			g[r] = map[int][]int32{}
		}
		for p, n := range s.statePairs(state) {
			g[p.src][p.dst] = gatherIdx(p, n)
		}
		s.gathers[state] = g
	}
	s.deltas = [2][]dynamic.Delta{make([]dynamic.Delta, K), make([]dynamic.Delta, K)}
	for _, p := range s.toggles {
		s.deltas[0][p.src].Add = append(s.deltas[0][p.src].Add, dynamic.Announce{Dst: p.dst, Size: s.pairs[p]})
		s.deltas[1][p.src].Remove = append(s.deltas[1][p.src].Remove, p.dst)
	}
}

type churnStepper struct {
	*world
	in    *churnInstance
	ps    []*core.Persistent
	reps  []*core.Replay
	halos [churnReplays][][]float64
	state int
}

func (s *churnInstance) setup(o setupOpts, ph *phases) (stepper, error) {
	timed(&ph.pattern, func() error { s.buildPattern(); return nil })
	var w *world
	if err := timed(&ph.world, func() (err error) {
		w, err = startWorld(overChanpt, o, s.topo.N())
		return err
	}); err != nil {
		return nil, err
	}
	st := &churnStepper{world: w, in: s, ps: make([]*core.Persistent, K), reps: make([]*core.Replay, K)}
	err := timed(&ph.learn, func() error {
		return w.p.run(func(r int) (err error) {
			st.ps[r], _, err = core.NewPersistent(w.cs[r], s.topo, s.payloads[r])
			return err
		})
	})
	if err == nil {
		err = timed(&ph.session, func() error {
			return w.p.run(func(r int) (err error) {
				st.reps[r], err = st.ps[r].Compile(churnXlen, s.gathers[0][r])
				return err
			})
		})
	}
	if err != nil {
		st.close()
		return nil, err
	}
	for i := range st.halos {
		st.halos[i] = make([][]float64, K)
		for r := range st.halos[i] {
			st.halos[i][r] = make([]float64, len(s.want[0][i][r]))
		}
	}
	return st, nil
}

// step is one churn epoch: toggle the pairs, run the census, patch the
// learned schedule and its compiled replay, then replay it.
func (st *churnStepper) step() error {
	next := 1 - st.state
	st.state = next
	return st.p.run(func(r int) error {
		c := st.cs[r]
		t0 := st.tr.now()
		pd, err := dynamic.Discover(c, st.in.topo, st.in.deltas[next][r])
		st.tr.layer(r, kDiscover, t0)
		if err != nil {
			return err
		}
		t0 = st.tr.now()
		stats, err := st.ps[r].Patch(pd)
		st.tr.layer(r, kPatch, t0)
		if err != nil {
			return err
		}
		t0 = st.tr.now()
		err = st.ps[r].PatchCompiled(st.reps[r], churnXlen, st.in.gathers[next][r], stats)
		st.tr.layer(r, kPatchCompiled, t0)
		if err != nil {
			return err
		}
		st.tr.note(r, nDirtyStages, float64(stats.DirtyStages))
		hw := st.reps[r].HaloWords()
		for i := range st.halos {
			if hw > len(st.halos[i][r]) {
				return fmt.Errorf("rank %d: patched replay delivers %d words, more than the full pattern's %d", r, hw, len(st.halos[i][r]))
			}
			t0 = st.tr.now()
			err := st.reps[r].Run(c, st.in.xs[i][r], st.halos[i][r][:hw])
			st.tr.layer(r, kReplay, t0)
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// check compares every replay's deliveries bit for bit, clears the halos
// so the next epoch cannot pass on stale data, and verifies the patched
// world's learned schedules.
func (st *churnStepper) check() error {
	for i := range st.halos {
		for r, halo := range st.halos[i] {
			want := st.in.want[st.state][i][r]
			if hw := st.reps[r].HaloWords(); hw != len(want) {
				return fmt.Errorf("replay %d rank %d: %d halo words, want %d", i, r, hw, len(want))
			}
			for j, v := range want {
				if math.Float64bits(halo[j]) != math.Float64bits(v) {
					return fmt.Errorf("replay %d rank %d: halo[%d] = %v, want %v", i, r, j, halo[j], v)
				}
			}
			clear(halo)
		}
	}
	return core.VerifyLearnedWorld(st.ps)
}
