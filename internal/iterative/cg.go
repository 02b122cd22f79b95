// Package iterative implements a distributed conjugate gradient solver on
// top of the row-parallel SpMV and the collectives — the iterative-solver
// setting the paper's line of work targets (irregular SpMV communication
// repeated every iteration is exactly where regularizing the exchange pays
// off, since the pattern is fixed and the latency cost recurs).
//
// Vectors are distributed conformally with the matrix rows: each rank holds
// full-length slices but only its owned entries are meaningful. The SpMV
// exchange (BL or STFW) moves the halo entries; dot products reduce owned
// partial sums with an allreduce. CG uses the Chronopoulos–Gear recurrence,
// which computes both of an iteration's inner products from the same
// vectors, so they travel in one two-value allreduce per iteration instead
// of two scalar ones. A small reduction costs its tree latency, not its
// bytes, so fusing them halves CG's collective frames and hops; the price
// is one extra SpMV at set-up.
package iterative

import (
	"fmt"
	"math"

	"stfw/internal/collectives"
	"stfw/internal/partition"
	"stfw/internal/runtime"
	"stfw/internal/sparse"
	"stfw/internal/spmv"
)

// CGOptions configures the solver.
type CGOptions struct {
	// MaxIter bounds the iteration count; 0 means 10 * sqrt(n) + 100.
	MaxIter int
	// Tol is the relative residual target ||r|| / ||b||; 0 means 1e-10.
	Tol float64
	// Comm selects the exchange scheme of the SpMV (BL or STFW+topology).
	Comm spmv.Options
}

// CGResult reports the outcome on each rank. X holds the full-length
// solution vector with this rank's owned entries filled; assemble the
// global solution with spmv.Reduce.
type CGResult struct {
	X         []float64
	Iters     int
	Residual  float64 // final relative residual
	Converged bool
}

// CG solves A x = b for a symmetric positive definite A, collectively
// across all ranks of c. Every rank passes the same replicated A, partition,
// pattern and right-hand side; the returned X carries the rank's owned
// entries.
//
// The solver runs the Chronopoulos–Gear recurrence. Besides r it carries
// w = A r and s = A p, updated as s = w + beta*s, so the two inner products
// an iteration needs, (r,r) and (w,r), are both available right after the
// iteration's one SpMV and reduce together: one Allreduce of two values
// per iteration, plus one at set-up, instead of two scalar reductions.
// p.Ap follows from them as (w,r) - beta*(r,r)/alpha. Set-up costs one
// extra SpMV (w = A b, which under STFW is the learning run). In exact
// arithmetic the iterates are Hestenes–Stiefel CG's, so the iteration
// count matches SerialCG's.
func CG(c runtime.Comm, a *sparse.CSR, part *partition.Partition, pat *spmv.Pattern, b []float64, opt CGOptions) (*CGResult, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("iterative: matrix must be square")
	}
	if len(b) != n {
		return nil, fmt.Errorf("iterative: b length %d != n %d", len(b), n)
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10*int(math.Sqrt(float64(n))) + 100
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-10
	}
	// A session reuses the exchange pattern across iterations; under STFW
	// the store-and-forward frame layout is learned once, then compiled and
	// replayed. The session also caches the owned-row list.
	sess, err := spmv.NewSession(c, a, part, pat, opt.Comm)
	if err != nil {
		return nil, err
	}
	owned := sess.OwnedRows()

	// x and r are full-length: X is returned that way and r is the SpMV
	// input. p and s are only read at owned rows, so they are compact:
	// p[k] is row owned[k].
	x := make([]float64, n)
	r := make([]float64, n)
	for _, i := range owned {
		r[i] = b[i] // x0 = 0 -> r = b
	}
	p := make([]float64, len(owned))
	s := make([]float64, len(owned))

	// reduce returns the global (r,r) and (w,r) from one allreduce.
	reduce := func(w []float64) (rr, wr float64, err error) {
		var local [2]float64
		for _, i := range owned {
			local[0] += r[i] * r[i]
			local[1] += w[i] * r[i]
		}
		g, err := collectives.Allreduce(c, local[:], collectives.Sum)
		if err != nil {
			return 0, 0, err
		}
		return g[0], g[1], nil
	}

	w, err := sess.Multiply(r)
	if err != nil {
		return nil, fmt.Errorf("iterative: set-up SpMV: %w", err)
	}
	gamma, delta, err := reduce(w)
	if err != nil {
		return nil, err
	}
	if gamma == 0 {
		return &CGResult{X: x, Converged: true}, nil
	}
	if delta <= 0 {
		return nil, notSPD(delta, 0)
	}
	bNorm2 := gamma
	alpha, beta := gamma/delta, 0.0

	res := &CGResult{X: x}
	for it := 0; it < opt.MaxIter; it++ {
		for k, i := range owned {
			p[k] = r[i] + beta*p[k]
			s[k] = w[i] + beta*s[k]
			x[i] += alpha * p[k]
			r[i] -= alpha * s[k]
		}
		if w, err = sess.Multiply(r); err != nil {
			return nil, fmt.Errorf("iterative: iteration %d SpMV: %w", it, err)
		}
		gammaNew, delta, err := reduce(w)
		if err != nil {
			return nil, err
		}
		res.Iters = it + 1
		res.Residual = math.Sqrt(gammaNew / bNorm2)
		if res.Residual < opt.Tol {
			res.Converged = true
			return res, nil
		}
		beta = gammaNew / gamma
		pAp := delta - beta*gammaNew/alpha
		if pAp <= 0 {
			return nil, notSPD(pAp, it+1)
		}
		alpha = gammaNew / pAp
		gamma = gammaNew
	}
	return res, nil
}

func notSPD(pAp float64, it int) error {
	return fmt.Errorf("iterative: p.Ap = %g <= 0 at iteration %d (matrix not SPD?)", pAp, it)
}

// SerialCG is the single-process reference implementation used to validate
// the distributed solver.
func SerialCG(a *sparse.CSR, b []float64, maxIter int, tol float64) ([]float64, int, error) {
	n := a.Rows
	if maxIter <= 0 {
		maxIter = 10*int(math.Sqrt(float64(n))) + 100
	}
	if tol <= 0 {
		tol = 1e-10
	}
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	dot := func(u, v []float64) float64 {
		var s float64
		for i := range u {
			s += u[i] * v[i]
		}
		return s
	}
	bNorm2 := dot(b, b)
	if bNorm2 == 0 {
		return x, 0, nil
	}
	rs := dot(r, r)
	for it := 0; it < maxIter; it++ {
		q, err := a.MulVec(nil, p)
		if err != nil {
			return nil, 0, err
		}
		pq := dot(p, q)
		if pq <= 0 {
			return nil, 0, fmt.Errorf("iterative: serial CG: matrix not SPD")
		}
		alpha := rs / pq
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * q[i]
		}
		rsNew := dot(r, r)
		if math.Sqrt(rsNew/bNorm2) < tol {
			return x, it + 1, nil
		}
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rs = rsNew
	}
	return x, maxIter, nil
}
