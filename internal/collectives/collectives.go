// Package collectives implements the classic regular collective operations
// the paper positions its work against (Section 7): barrier, broadcast,
// allgather, reduce-scatter, allreduce and all-to-all, built on the same
// runtime.Comm substrate as the store-and-forward scheme. They use the
// standard algorithms (dissemination barrier, binomial trees, ring
// allgather, pairwise all-to-all) so the repository contains the collective
// baseline an MPI distribution would offer, and so applications (e.g. the
// CG solver in internal/iterative) have the reductions they need. Allreduce
// is a binomial-tree reduce followed by a broadcast rather than recursive
// doubling: it takes lg K more rounds but sends 2(K-1) frames instead of
// K lg K, and on this runtime's transports the per-frame cost, not the
// round count, dominates a small reduction.
//
// All operations are collective: every rank of the communicator must call
// them with compatible arguments. Tags are drawn from a reserved range so
// collectives can interleave with store-and-forward exchanges.
package collectives

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"stfw/internal/runtime"
)

const (
	tagBarrier = 0x4342 + iota
	tagBcast
	tagAllgather
	tagGather
	tagAllreduce     // partial results up the reduction tree
	tagAllreduceDown // rank 0's result down the broadcast tree
	tagAlltoall
)

// Barrier synchronizes all ranks with the dissemination algorithm:
// ceil(lg K) rounds, one message per rank per round.
func Barrier(c runtime.Comm) error {
	K := c.Size()
	me := c.Rank()
	for round, dist := 0, 1; dist < K; round, dist = round+1, dist*2 {
		to := (me + dist) % K
		from := (me - dist%K + K) % K
		if err := c.Send(to, tagBarrier+round*16, nil); err != nil {
			return fmt.Errorf("collectives: barrier round %d: %w", round, err)
		}
		if _, err := c.Recv(from, tagBarrier+round*16); err != nil {
			return fmt.Errorf("collectives: barrier round %d: %w", round, err)
		}
	}
	return nil
}

// Bcast distributes root's buffer to every rank using a binomial tree:
// non-roots receive once, then forward to lg K - level children. It returns
// the broadcast payload (root's own buf on the root).
func Bcast(c runtime.Comm, root int, buf []byte) ([]byte, error) {
	return bcast(c, root, tagBcast, buf)
}

// bcast is Bcast on a caller-chosen tag.
func bcast(c runtime.Comm, root, tag int, buf []byte) ([]byte, error) {
	K := c.Size()
	if root < 0 || root >= K {
		return nil, fmt.Errorf("collectives: bcast root %d out of range", root)
	}
	// Rotate ranks so the root is virtual rank 0.
	vrank := (c.Rank() - root + K) % K
	data := buf
	if vrank != 0 {
		// Receive from parent: clear lowest set bit.
		parent := (vrank&(vrank-1) + root) % K
		var err error
		data, err = c.Recv(parent, tag)
		if err != nil {
			return nil, fmt.Errorf("collectives: bcast recv: %w", err)
		}
	}
	// Forward to children: set bits above the lowest set bit of vrank.
	low := vrank & (-vrank)
	if vrank == 0 {
		low = 1 << uint(bitsLen(K))
	}
	for d := low >> 1; d > 0; d >>= 1 {
		child := vrank | d
		if child != vrank && child < K {
			if err := c.Send((child+root)%K, tag, data); err != nil {
				return nil, fmt.Errorf("collectives: bcast send: %w", err)
			}
		}
	}
	return data, nil
}

// bitsLen returns the number of bits needed to represent v-1 (ceil lg v).
func bitsLen(v int) int {
	n := 0
	for 1<<uint(n) < v {
		n++
	}
	return n
}

// AllgatherDoubles gathers one float64 slice from every rank into a
// [][]float64 indexed by rank, using the ring algorithm (works for any K;
// K-1 rounds, one message per rank per round — bandwidth-optimal).
func AllgatherDoubles(c runtime.Comm, mine []float64) ([][]float64, error) {
	K := c.Size()
	me := c.Rank()
	out := make([][]float64, K)
	out[me] = mine
	cur := mine
	curOwner := me
	right := (me + 1) % K
	left := (me - 1 + K) % K
	for round := 0; round < K-1; round++ {
		if err := c.Send(right, tagAllgather+round, encodeOwned(curOwner, cur)); err != nil {
			return nil, fmt.Errorf("collectives: allgather send: %w", err)
		}
		raw, err := c.Recv(left, tagAllgather+round)
		if err != nil {
			return nil, fmt.Errorf("collectives: allgather recv: %w", err)
		}
		owner, vals, err := decodeOwned(raw)
		if err != nil {
			return nil, err
		}
		if owner < 0 || owner >= K || out[owner] != nil && owner != me {
			return nil, fmt.Errorf("collectives: allgather duplicate segment from rank %d", owner)
		}
		out[owner] = vals
		cur, curOwner = vals, owner
	}
	return out, nil
}

func encodeOwned(owner int, vals []float64) []byte {
	buf := make([]byte, 0, 4+8*len(vals))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(owner))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func decodeOwned(raw []byte) (int, []float64, error) {
	if len(raw) < 4 || (len(raw)-4)%8 != 0 {
		return 0, nil, fmt.Errorf("collectives: malformed segment (%d bytes)", len(raw))
	}
	owner := int(binary.LittleEndian.Uint32(raw))
	vals := make([]float64, (len(raw)-4)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[4+8*i:]))
	}
	return owner, vals, nil
}

// Op is a reduction operator over float64.
type Op func(a, b float64) float64

// Sum, Max and Min are the standard reduction operators.
var (
	Sum Op = func(a, b float64) float64 { return a + b }
	Max Op = math.Max
	Min Op = math.Min
)

// poisonOwner is the owner word of an Allreduce frame that carries no
// values: a rank saw a length mismatch or a malformed frame from a child.
// It travels up to rank 0 and back down, so every rank returns an error
// instead of one side waiting for a frame that never comes.
const poisonOwner = 0xffffffff

var errAllreduceAborted = errors.New("collectives: allreduce aborted: another rank saw a length mismatch")

// Allreduce reduces the vectors elementwise across all ranks and returns
// the full result on every rank. It reduces up a binomial tree to rank 0
// (each rank folds in its children me+d for d below its lowest set bit,
// then sends to me with that bit cleared) and broadcasts rank 0's result
// down the same tree: 2(K-1) frames for any K, and every rank returns rank
// 0's bytes, so the result is bit-identical across ranks. All ranks must
// pass equal-length vectors; a mismatch fails every rank.
func Allreduce(c runtime.Comm, vec []float64, op Op) ([]float64, error) {
	K := c.Size()
	me := c.Rank()
	acc := append([]float64(nil), vec...)
	// A rank that finds a bad frame keeps draining its other children, so
	// none of their frames is left queued under the tag.
	var bad error
	for d := 1; me&d == 0 && me+d < K; d <<= 1 {
		raw, err := c.Recv(me+d, tagAllreduce)
		if err != nil {
			return nil, fmt.Errorf("collectives: allreduce recv: %w", err)
		}
		if bad == nil {
			bad = foldOwned(acc, raw, op)
		}
	}
	var out []byte
	if bad == nil {
		out = encodeOwned(me, acc)
	} else {
		out = binary.LittleEndian.AppendUint32(nil, poisonOwner)
	}
	if me != 0 {
		if err := c.Send(me&(me-1), tagAllreduce, out); err != nil {
			return nil, fmt.Errorf("collectives: allreduce send: %w", err)
		}
	}
	res, err := bcast(c, 0, tagAllreduceDown, out)
	switch {
	case err != nil:
		return nil, err
	case bad != nil:
		return nil, bad
	case me == 0:
		return acc, nil
	case isPoison(res):
		return nil, errAllreduceAborted
	}
	_, vals, err := decodeOwned(res)
	return vals, err
}

// foldOwned folds an encodeOwned frame into acc in place, reading the
// values straight from raw.
func foldOwned(acc []float64, raw []byte, op Op) error {
	if isPoison(raw) {
		return errAllreduceAborted
	}
	if len(raw) < 4 || (len(raw)-4)%8 != 0 {
		return fmt.Errorf("collectives: malformed segment (%d bytes)", len(raw))
	}
	if n := (len(raw) - 4) / 8; n != len(acc) {
		return fmt.Errorf("collectives: allreduce length mismatch %d vs %d", n, len(acc))
	}
	for i := range acc {
		acc[i] = op(acc[i], math.Float64frombits(binary.LittleEndian.Uint64(raw[4+8*i:])))
	}
	return nil
}

func isPoison(raw []byte) bool {
	return len(raw) == 4 && binary.LittleEndian.Uint32(raw) == poisonOwner
}

// AllreduceScalar reduces a single value across all ranks.
func AllreduceScalar(c runtime.Comm, v float64, op Op) (float64, error) {
	out, err := Allreduce(c, []float64{v}, op)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// Alltoall performs a dense personalized exchange: sendbuf[j] goes to rank
// j, and the returned slice holds recvbuf[i] = what rank i sent to this
// rank. It uses direct pairwise exchange in K-1 balanced rounds (the
// XOR/shift schedule), the dense counterpart of the paper's sparse
// exchange.
func Alltoall(c runtime.Comm, sendbuf [][]byte) ([][]byte, error) {
	K := c.Size()
	me := c.Rank()
	if len(sendbuf) != K {
		return nil, fmt.Errorf("collectives: alltoall sendbuf has %d entries for K=%d", len(sendbuf), K)
	}
	recv := make([][]byte, K)
	recv[me] = sendbuf[me]
	for round := 0; round < K; round++ {
		var peer int
		if K&(K-1) == 0 {
			peer = me ^ round // perfectly balanced pairwise schedule
		} else {
			// Pair ranks so a+b = round (mod K): symmetric and, over all
			// rounds 0..K-1, covers every ordered pair exactly once.
			peer = (round - me%K + K) % K
		}
		if peer == me {
			continue
		}
		if err := c.Send(peer, tagAlltoall+round, sendbuf[peer]); err != nil {
			return nil, fmt.Errorf("collectives: alltoall send round %d: %w", round, err)
		}
		raw, err := c.Recv(peer, tagAlltoall+round)
		if err != nil {
			return nil, fmt.Errorf("collectives: alltoall recv round %d: %w", round, err)
		}
		recv[peer] = raw
	}
	return recv, nil
}

// Gather collects one byte slice from every rank at the root (returned
// slice indexed by rank on the root, nil elsewhere), using direct sends —
// the inverse of Bcast's fan-out is rarely latency-critical at the sizes
// the solver uses, and root-side aggregation keeps it simple.
func Gather(c runtime.Comm, root int, mine []byte) ([][]byte, error) {
	K := c.Size()
	if root < 0 || root >= K {
		return nil, fmt.Errorf("collectives: gather root %d out of range", root)
	}
	me := c.Rank()
	if me != root {
		return nil, c.Send(root, tagGather, mine)
	}
	out := make([][]byte, K)
	out[root] = mine
	for r := 0; r < K; r++ {
		if r == root {
			continue
		}
		raw, err := c.Recv(r, tagGather)
		if err != nil {
			return nil, fmt.Errorf("collectives: gather recv from %d: %w", r, err)
		}
		out[r] = raw
	}
	return out, nil
}

// ReduceScatterDoubles reduces the vectors elementwise and leaves each rank
// with its block of the result: rank r gets elements [r*len/K, (r+1)*len/K)
// of the reduction. Built as allreduce + local slice; the simple form is
// correct for any K and any associative op.
func ReduceScatterDoubles(c runtime.Comm, vec []float64, op Op) ([]float64, error) {
	full, err := Allreduce(c, vec, op)
	if err != nil {
		return nil, err
	}
	K := c.Size()
	me := c.Rank()
	lo := me * len(full) / K
	hi := (me + 1) * len(full) / K
	out := make([]float64, hi-lo)
	copy(out, full[lo:hi])
	return out, nil
}
