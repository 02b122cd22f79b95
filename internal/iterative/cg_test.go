package iterative

import (
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stfw/internal/core"
	"stfw/internal/partition"
	"stfw/internal/runtime"
	"stfw/internal/sparse"
	"stfw/internal/spmv"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/udpnet"
	"stfw/internal/vpt"
)

// spdMatrix builds a random symmetric positive definite test matrix.
func spdMatrix(t testing.TB, rows int) *sparse.CSR {
	t.Helper()
	base, err := sparse.Generate(sparse.GenParams{
		Name: "cgtest", Rows: rows, TargetNNZ: rows * 8, MaxDegree: rows / 4,
		HubRows: 2, Band: 3, TailFrac: 0.2, TailSkew: 1.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sparse.DiagonallyDominant(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func rhs(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

func residualNorm(a *sparse.CSR, x, b []float64) float64 {
	ax, _ := a.MulVec(nil, x)
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb)
}

func TestDiagonallyDominantIsSPDish(t *testing.T) {
	a := spdMatrix(t, 200)
	// Diagonal strictly dominates every row.
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		var diag, off float64
		for k, c := range cols {
			if int(c) == i {
				diag = vals[k]
			} else {
				off += math.Abs(vals[k])
			}
		}
		if diag <= off {
			t.Fatalf("row %d not dominant: diag %g vs off %g", i, diag, off)
		}
	}
	if !a.IsSymmetricPattern() {
		t.Fatal("pattern not symmetric")
	}
}

func TestSerialCGConverges(t *testing.T) {
	a := spdMatrix(t, 300)
	b := rhs(a.Rows, 1)
	x, iters, err := SerialCG(a, b, 0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if res := residualNorm(a, x, b); res > 1e-8 {
		t.Errorf("serial CG residual %g after %d iters", res, iters)
	}
}

// world is the part of a transport world the tests drive.
type world interface {
	Size() int
	Run(runtime.RankFunc) error
	Close()
}

// runBound bounds every world run in this package's tests.
const runBound = 30 * time.Second

// runWithin runs fn on every rank of w and fails the test, naming the
// ranks still blocked, when the run has not returned within runBound. The
// world is closed on expiry so blocked ranks wake with an error instead of
// hanging the package until the go test timeout.
func runWithin(t testing.TB, w world, fn runtime.RankFunc) error {
	t.Helper()
	returned := make([]atomic.Bool, w.Size())
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c runtime.Comm) error {
			defer returned[c.Rank()].Store(true)
			return fn(c)
		})
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(runBound):
		var blocked []int
		for r := range returned {
			if !returned[r].Load() {
				blocked = append(blocked, r)
			}
		}
		w.Close()
		t.Fatalf("world of %d ranks did not finish within %v; ranks still blocked: %v", w.Size(), runBound, blocked)
		return nil
	}
}

// runCG executes the distributed CG over a channel world and assembles the
// solution.
func runCG(t *testing.T, a *sparse.CSR, part *partition.Partition, b []float64, opt CGOptions) ([]float64, *CGResult) {
	t.Helper()
	w, err := chanpt.NewWorld(part.K, part.K)
	if err != nil {
		t.Fatal(err)
	}
	return runCGOn(t, w, a, part, b, opt)
}

// runCGOn executes the distributed CG over w, checks that every rank
// reports the same outcome, and assembles the solution.
func runCGOn(t *testing.T, w world, a *sparse.CSR, part *partition.Partition, b []float64, opt CGOptions) ([]float64, *CGResult) {
	t.Helper()
	pat, err := spmv.BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*CGResult, part.K)
	err = runWithin(t, w, func(c runtime.Comm) error {
		res, err := CG(c, a, part, pat, b, opt)
		if err != nil {
			return err
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, part.K)
	for r, res := range results {
		xs[r] = res.X
		if res.Iters != results[0].Iters || res.Converged != results[0].Converged {
			t.Fatalf("ranks disagree on outcome: %+v vs %+v", res, results[0])
		}
	}
	x, err := spmv.Reduce(part, xs)
	if err != nil {
		t.Fatal(err)
	}
	return x, results[0]
}

// relErr returns ||x - ref|| / ||ref||.
func relErr(x, ref []float64) float64 {
	var dd, rr float64
	for i := range ref {
		d := x[i] - ref[i]
		dd += d * d
		rr += ref[i] * ref[i]
	}
	return math.Sqrt(dd / rr)
}

func TestDistributedCGMatchesSerialBL(t *testing.T) {
	a := spdMatrix(t, 400)
	b := rhs(a.Rows, 2)
	part, err := partition.Greedy(a, 8, partition.DefaultGreedy())
	if err != nil {
		t.Fatal(err)
	}
	x, res := runCG(t, a, part, b, CGOptions{Comm: spmv.Options{Method: spmv.BL}})
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if got := residualNorm(a, x, b); got > 1e-8 {
		t.Errorf("residual %g", got)
	}
}

func TestDistributedCGMatchesSerialSTFW(t *testing.T) {
	a := spdMatrix(t, 400)
	b := rhs(a.Rows, 3)
	for _, c := range []struct{ K, dim int }{{16, 2}, {16, 4}, {32, 5}} {
		part, err := partition.Greedy(a, c.K, partition.DefaultGreedy())
		if err != nil {
			t.Fatal(err)
		}
		tp, err := vpt.NewBalanced(c.K, c.dim)
		if err != nil {
			t.Fatal(err)
		}
		x, res := runCG(t, a, part, b, CGOptions{
			Comm: spmv.Options{Method: spmv.STFW, Topo: tp},
		})
		if !res.Converged {
			t.Fatalf("K=%d dim=%d did not converge: %+v", c.K, c.dim, res)
		}
		if got := residualNorm(a, x, b); got > 1e-8 {
			t.Errorf("K=%d dim=%d residual %g", c.K, c.dim, got)
		}
	}
}

func TestCGSchemesAgreeIterForIter(t *testing.T) {
	// BL and STFW move identical values, so the iterates are bit-for-bit
	// comparable up to floating-point reduction order; with the same
	// deterministic reduction order (allreduce tree identical), iteration
	// counts must match exactly.
	a := spdMatrix(t, 300)
	b := rhs(a.Rows, 4)
	part, err := partition.Greedy(a, 16, partition.DefaultGreedy())
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := vpt.NewBalanced(16, 4)
	_, resBL := runCG(t, a, part, b, CGOptions{Comm: spmv.Options{Method: spmv.BL}})
	_, resST := runCG(t, a, part, b, CGOptions{Comm: spmv.Options{Method: spmv.STFW, Topo: tp}})
	if resBL.Iters != resST.Iters {
		t.Errorf("BL took %d iters, STFW %d", resBL.Iters, resST.Iters)
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := spdMatrix(t, 100)
	part, _ := partition.Block(a.Rows, 4)
	x, res := runCG(t, a, part, make([]float64, a.Rows), CGOptions{Comm: spmv.Options{Method: spmv.BL}})
	if !res.Converged || res.Iters != 0 {
		t.Errorf("zero rhs: %+v", res)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("nonzero solution for zero rhs")
		}
	}
}

func TestCGValidation(t *testing.T) {
	a := spdMatrix(t, 64)
	part, _ := partition.Block(a.Rows, 4)
	pat, _ := spmv.BuildPattern(a, part)
	w, _ := chanpt.NewWorld(4, 4)
	err := w.Run(func(c runtime.Comm) error {
		if _, err := CG(c, a, part, pat, make([]float64, 5), CGOptions{}); err == nil {
			return errBadLen
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

var errBadLen = &validationErr{}

type validationErr struct{}

func (*validationErr) Error() string { return "bad b length accepted" }

func TestCGNonSPDFails(t *testing.T) {
	// An indefinite matrix must be rejected via the p.Ap check.
	ts := []sparse.Triple{
		{Row: 0, Col: 0, Val: -5}, {Row: 1, Col: 1, Val: 1},
	}
	a, err := sparse.FromTriples(2, 2, ts)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := partition.Block(2, 2)
	pat, _ := spmv.BuildPattern(a, part)
	w, _ := chanpt.NewWorld(2, 2)
	errs := make([]error, 2)
	_ = w.Run(func(c runtime.Comm) error {
		_, errs[c.Rank()] = CG(c, a, part, pat, []float64{1, 1}, CGOptions{})
		return nil
	})
	if errs[0] == nil || errs[1] == nil {
		t.Error("indefinite matrix accepted")
	}
}

// powerLawSPD builds the benchmark's CG system at 1/128 scale: the
// coAuthorsDBLP analog (2,336 rows, power-law degrees) made diagonally
// dominant.
func powerLawSPD(t testing.TB, seed int64) *sparse.CSR {
	t.Helper()
	e, err := sparse.Lookup("coAuthorsDBLP")
	if err != nil {
		t.Fatal(err)
	}
	p := sparse.ScaleParams(e.Params, 128)
	p.Seed = seed
	base, err := sparse.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sparse.DiagonallyDominant(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestCGIterationParity pins the Chronopoulos–Gear recurrence to the
// Hestenes–Stiefel reference: the distributed solve takes exactly
// SerialCG's iteration count and lands on its solution, under both
// exchange schemes, several world sizes, and a wire transport. It solves
// the benchmark's system class to the benchmark's tolerance. spdMatrix
// does not suit this check: its two hub rows, each coupled to a quarter
// of the columns, make the residual stall near the tolerance, so a
// different summation order alone moves the stopping iteration by one,
// for the classic recurrence as for this one.
func TestCGIterationParity(t *testing.T) {
	const tol = 1e-8
	a := powerLawSPD(t, 1)
	b := rhs(a.Rows, 1)
	xRef, refIters, err := SerialCG(a, b, 0, tol)
	if err != nil {
		t.Fatal(err)
	}
	type tcase struct {
		K    int
		stfw bool
		udp  bool
	}
	var cases []tcase
	for _, K := range []int{8, 16, 32} {
		cases = append(cases, tcase{K: K}, tcase{K: K, stfw: true})
	}
	cases = append(cases, tcase{K: 8, stfw: true, udp: true})
	for _, tc := range cases {
		part, err := partition.Greedy(a, tc.K, partition.DefaultGreedy())
		if err != nil {
			t.Fatal(err)
		}
		opt := CGOptions{Tol: tol, Comm: spmv.Options{Method: spmv.BL}}
		if tc.stfw {
			tp, err := vpt.NewBalanced(tc.K, 3)
			if err != nil {
				t.Fatal(err)
			}
			opt.Comm = spmv.Options{Method: spmv.STFW, Topo: tp}
		}
		var w world
		if tc.udp {
			w, err = udpnet.NewWorld(tc.K)
		} else {
			w, err = chanpt.NewWorld(tc.K, tc.K)
		}
		if err != nil {
			t.Fatal(err)
		}
		x, res := runCGOn(t, w, a, part, b, opt)
		w.Close()
		if !res.Converged || res.Iters != refIters {
			t.Errorf("%+v: converged=%v after %d iterations, SerialCG takes %d", tc, res.Converged, res.Iters, refIters)
		}
		if e := relErr(x, xRef); e > tol {
			t.Errorf("%+v: solution differs from SerialCG's by %g (relative)", tc, e)
		}
	}
}

// countingComm counts the frames a rank sends outside the exchange's
// stage tags, i.e. the collectives' frames.
type countingComm struct {
	runtime.Comm
	stages int
	other  *atomic.Int64
}

func (c countingComm) Send(to, tag int, p []byte) error {
	if _, ok := core.TagStage(tag, c.stages); !ok {
		c.other.Add(1)
	}
	return c.Comm.Send(to, tag, p)
}

// TestCGOneAllreducePerIteration pins the fused reduction: one binomial
// allreduce (2(K-1) frames) per iteration plus one at set-up, and no
// other non-exchange frame.
func TestCGOneAllreducePerIteration(t *testing.T) {
	const K, dim = 16, 4
	a := spdMatrix(t, 300)
	b := rhs(a.Rows, 7)
	part, err := partition.Greedy(a, K, partition.DefaultGreedy())
	if err != nil {
		t.Fatal(err)
	}
	pat, err := spmv.BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := vpt.NewBalanced(K, dim)
	if err != nil {
		t.Fatal(err)
	}
	w, err := chanpt.NewWorld(K, K)
	if err != nil {
		t.Fatal(err)
	}
	var other atomic.Int64
	iters := make([]int, K)
	err = runWithin(t, w, func(c runtime.Comm) error {
		res, err := CG(countingComm{c, dim, &other}, a, part, pat, b,
			CGOptions{Comm: spmv.Options{Method: spmv.STFW, Topo: tp}})
		if err != nil {
			return err
		}
		iters[c.Rank()] = res.Iters
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if iters[0] == 0 {
		t.Fatal("solve took no iterations")
	}
	if got, want := other.Load(), int64(2*(K-1)*(iters[0]+1)); got != want {
		t.Errorf("%d non-exchange frames over %d iterations, want 2(K-1)(iters+1) = %d", got, iters[0], want)
	}
}

// TestCGLateBreakdown uses an indefinite diagonal matrix whose set-up
// curvature (b, Ab) = 5 is positive, so the solve starts, but whose
// curvature at iteration 1 is negative (-6.4). Every rank must return the
// p.Ap error, within a bounded wait.
func TestCGLateBreakdown(t *testing.T) {
	const K = 4
	ts := []sparse.Triple{
		{Row: 0, Col: 0, Val: 3}, {Row: 1, Col: 1, Val: 2},
		{Row: 2, Col: 2, Val: 1}, {Row: 3, Col: 3, Val: -1},
	}
	a, err := sparse.FromTriples(K, K, ts)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Block(K, K)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := spmv.BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	w, err := chanpt.NewWorld(K, K)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, K)
	_ = runWithin(t, w, func(c runtime.Comm) error {
		_, errs[c.Rank()] = CG(c, a, part, pat, []float64{1, 1, 1, 1}, CGOptions{})
		return nil
	})
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "p.Ap") || !strings.Contains(err.Error(), "iteration 1 ") {
			t.Errorf("rank %d: got %v, want the p.Ap error at iteration 1", r, err)
		}
	}
}

func BenchmarkDistributedCG16(b *testing.B) {
	a := spdMatrix(b, 500)
	vec := rhs(a.Rows, 5)
	part, _ := partition.Greedy(a, 16, partition.DefaultGreedy())
	pat, _ := spmv.BuildPattern(a, part)
	tp, _ := vpt.NewBalanced(16, 4)
	opt := CGOptions{Comm: spmv.Options{Method: spmv.STFW, Topo: tp}, Tol: 1e-8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := chanpt.NewWorld(16, 16)
		err := w.Run(func(c runtime.Comm) error {
			_, err := CG(c, a, part, pat, vec, opt)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
