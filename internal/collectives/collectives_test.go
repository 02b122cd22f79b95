package collectives

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
)

func world(t testing.TB, K int) *chanpt.World {
	t.Helper()
	w, err := chanpt.NewWorld(K, K)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runWithin runs fn on every rank of w and fails the test, naming the
// ranks still blocked, when the run has not returned within d. The world
// is closed on expiry so the blocked ranks wake with an error instead of
// hanging the package until the go test timeout.
func runWithin(t testing.TB, d time.Duration, w *chanpt.World, fn runtime.RankFunc) error {
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
	case <-time.After(d):
		var blocked []int
		for r := range returned {
			if !returned[r].Load() {
				blocked = append(blocked, r)
			}
		}
		w.Close()
		t.Fatalf("world of %d ranks did not finish within %v; ranks still blocked: %v", w.Size(), d, blocked)
		return nil
	}
}

// runBound bounds each Allreduce and Bcast world run.
const runBound = 10 * time.Second

func TestBarrier(t *testing.T) {
	for _, K := range []int{1, 2, 3, 8, 13, 32} {
		var before int32
		w := world(t, K)
		err := w.Run(func(c runtime.Comm) error {
			atomic.AddInt32(&before, 1)
			if err := Barrier(c); err != nil {
				return err
			}
			if got := atomic.LoadInt32(&before); got != int32(K) {
				return fmt.Errorf("rank %d passed barrier with %d arrivals", c.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	payload := []byte("broadcast me, carefully")
	for _, K := range []int{1, 2, 3, 7, 8, 16, 20} {
		for root := 0; root < K; root += maxi(1, K/3) {
			w := world(t, K)
			err := runWithin(t, runBound, w, func(c runtime.Comm) error {
				var buf []byte
				if c.Rank() == root {
					buf = payload
				}
				got, err := Bcast(c, root, buf)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, payload) {
					return fmt.Errorf("rank %d got %q", c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("K=%d root=%d: %v", K, root, err)
			}
		}
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestBcastBadRoot(t *testing.T) {
	w := world(t, 2)
	err := runWithin(t, runBound, w, func(c runtime.Comm) error {
		if _, err := Bcast(c, 5, nil); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherDoubles(t *testing.T) {
	for _, K := range []int{1, 2, 3, 8, 11} {
		w := world(t, K)
		err := w.Run(func(c runtime.Comm) error {
			mine := []float64{float64(c.Rank()), float64(c.Rank() * 10)}
			all, err := AllgatherDoubles(c, mine)
			if err != nil {
				return err
			}
			if len(all) != K {
				return fmt.Errorf("got %d segments", len(all))
			}
			for r := 0; r < K; r++ {
				if len(all[r]) != 2 || all[r][0] != float64(r) || all[r][1] != float64(r*10) {
					return fmt.Errorf("rank %d: segment %d = %v", c.Rank(), r, all[r])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, K := range []int{1, 2, 4, 8, 16, 3, 6, 12} {
		w := world(t, K)
		wantSum := float64(K*(K-1)) / 2
		err := runWithin(t, runBound, w, func(c runtime.Comm) error {
			vec := []float64{float64(c.Rank()), 1}
			got, err := Allreduce(c, vec, Sum)
			if err != nil {
				return err
			}
			if got[0] != wantSum || got[1] != float64(K) {
				return fmt.Errorf("rank %d: got %v, want [%v %v]", c.Rank(), got, wantSum, float64(K))
			}
			// The input must not be clobbered.
			if vec[0] != float64(c.Rank()) {
				return fmt.Errorf("input mutated")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	const K = 8
	w := world(t, K)
	err := runWithin(t, runBound, w, func(c runtime.Comm) error {
		v := float64(c.Rank())
		max, err := AllreduceScalar(c, v, Max)
		if err != nil {
			return err
		}
		min, err := AllreduceScalar(c, v, Min)
		if err != nil {
			return err
		}
		if max != K-1 || min != 0 {
			return fmt.Errorf("max=%v min=%v", max, min)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceLengthMismatch(t *testing.T) {
	w := world(t, 2)
	errs := make([]error, 2)
	_ = runWithin(t, runBound, w, func(c runtime.Comm) error {
		vec := make([]float64, 1+c.Rank()) // ranks disagree on length
		_, errs[c.Rank()] = Allreduce(c, vec, Sum)
		return nil
	})
	if errs[0] == nil && errs[1] == nil {
		t.Error("length mismatch not detected")
	}
}

// countingComm counts the frames a rank sends.
type countingComm struct {
	runtime.Comm
	sent *atomic.Int64
}

func (c countingComm) Send(to, tag int, p []byte) error {
	c.sent.Add(1)
	return c.Comm.Send(to, tag, p)
}

// TestAllreduceFrameCount pins the binomial reduce plus broadcast: K-1
// frames up the tree and K-1 back down, for any K.
func TestAllreduceFrameCount(t *testing.T) {
	for _, K := range []int{1, 2, 3, 5, 6, 8, 64} {
		var sent atomic.Int64
		w := world(t, K)
		err := runWithin(t, runBound, w, func(c runtime.Comm) error {
			got, err := Allreduce(countingComm{c, &sent}, []float64{1, 2}, Sum)
			if err != nil {
				return err
			}
			if got[0] != float64(K) || got[1] != float64(2*K) {
				return fmt.Errorf("rank %d: got %v", c.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
		if n := sent.Load(); n != int64(2*(K-1)) {
			t.Errorf("K=%d: %d frames sent, want %d", K, n, 2*(K-1))
		}
	}
}

// TestAllreduceMismatchAtDepth gives one leaf a different length. Only
// its parent sees the mismatch; every rank must still fail.
func TestAllreduceMismatchAtDepth(t *testing.T) {
	const odd = 5
	for _, K := range []int{6, 8} {
		errs := make([]error, K)
		w := world(t, K)
		err := runWithin(t, runBound, w, func(c runtime.Comm) error {
			vec := []float64{1}
			if c.Rank() == odd {
				vec = []float64{1, 2}
			}
			_, errs[c.Rank()] = Allreduce(c, vec, Sum)
			return nil
		})
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
		for r, e := range errs {
			if e == nil {
				t.Errorf("K=%d: rank %d returned no error", K, r)
			}
		}
	}
}

// TestAllreduceBitIdentical uses inputs whose sum depends on the order of
// addition and checks that every rank returns the same bits anyway.
func TestAllreduceBitIdentical(t *testing.T) {
	vals := []float64{1e16, 1, -1e16, 3, 1e-3, 7e15, -2.5}
	input := func(r int) float64 { return vals[r%len(vals)] * float64(1+r/len(vals)) }
	for _, K := range []int{5, 6, 7, 8, 16} {
		// Guard the inputs: some rotation of the rank order must change the
		// sequential sum, or the test could not tell orders apart.
		sum := func(rot int) (s float64) {
			for r := 0; r < K; r++ {
				s += input((r + rot) % K)
			}
			return s
		}
		orderDependent := false
		for rot := 1; rot < K; rot++ {
			orderDependent = orderDependent || sum(rot) != sum(0)
		}
		if !orderDependent {
			t.Fatalf("K=%d: inputs do not depend on summation order", K)
		}
		bits := make([]uint64, K)
		w := world(t, K)
		err := runWithin(t, runBound, w, func(c runtime.Comm) error {
			got, err := AllreduceScalar(c, input(c.Rank()), Sum)
			bits[c.Rank()] = math.Float64bits(got)
			return err
		})
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
		for r := 1; r < K; r++ {
			if bits[r] != bits[0] {
				t.Errorf("K=%d: rank %d got %v, rank 0 got %v", K, r, math.Float64frombits(bits[r]), math.Float64frombits(bits[0]))
			}
		}
	}
}

func TestAlltoall(t *testing.T) {
	for _, K := range []int{1, 2, 4, 8, 3, 5, 9} {
		w := world(t, K)
		err := w.Run(func(c runtime.Comm) error {
			me := c.Rank()
			send := make([][]byte, K)
			for j := 0; j < K; j++ {
				send[j] = []byte{byte(me), byte(j)}
			}
			recv, err := Alltoall(c, send)
			if err != nil {
				return err
			}
			for i := 0; i < K; i++ {
				if len(recv[i]) != 2 || int(recv[i][0]) != i || int(recv[i][1]) != me {
					return fmt.Errorf("rank %d: recv[%d] = %v", me, i, recv[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
	}
}

func TestAlltoallValidation(t *testing.T) {
	w := world(t, 2)
	errs := make([]error, 2)
	_ = w.Run(func(c runtime.Comm) error {
		if c.Rank() == 0 {
			_, errs[0] = Alltoall(c, make([][]byte, 1)) // wrong length
			return nil
		}
		return nil
	})
	if errs[0] == nil {
		t.Error("wrong sendbuf length accepted")
	}
}

func BenchmarkAllreduce64(b *testing.B) {
	w := world(b, 64)
	comms := w.Comms()
	vec := make([]float64, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := runtime.Run(comms, func(c runtime.Comm) error {
			_, err := Allreduce(c, vec, Sum)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBarrier64(b *testing.B) {
	w := world(b, 64)
	comms := w.Comms()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runtime.Run(comms, Barrier); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGather(t *testing.T) {
	for _, K := range []int{1, 2, 5, 8} {
		for root := 0; root < K; root += maxi(1, K-1) {
			w := world(t, K)
			err := w.Run(func(c runtime.Comm) error {
				mine := []byte{byte(c.Rank() * 3)}
				got, err := Gather(c, root, mine)
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if got != nil {
						return fmt.Errorf("non-root got data")
					}
					return nil
				}
				for r := 0; r < K; r++ {
					if len(got[r]) != 1 || got[r][0] != byte(r*3) {
						return fmt.Errorf("root: got[%d] = %v", r, got[r])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("K=%d root=%d: %v", K, root, err)
			}
		}
	}
	w := world(t, 2)
	err := w.Run(func(c runtime.Comm) error {
		if _, err := Gather(c, 9, nil); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterDoubles(t *testing.T) {
	for _, K := range []int{2, 4, 3} {
		w := world(t, K)
		n := 2 * K
		err := runWithin(t, runBound, w, func(c runtime.Comm) error {
			vec := make([]float64, n)
			for i := range vec {
				vec[i] = float64(i)
			}
			// Sum over K ranks of the same vector = K * vec.
			got, err := ReduceScatterDoubles(c, vec, Sum)
			if err != nil {
				return err
			}
			me := c.Rank()
			lo := me * n / K
			if len(got) != (me+1)*n/K-lo {
				return fmt.Errorf("rank %d: block size %d", me, len(got))
			}
			for i, v := range got {
				if want := float64(K) * float64(lo+i); v != want {
					return fmt.Errorf("rank %d: got[%d] = %v, want %v", me, i, v, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
	}
}
