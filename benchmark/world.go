package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/hier"
	"stfw/internal/transport/udpnet"
)

// K is the world size of every workload: 64 ranks, each a goroutine of
// this process. It exceeds the host's cores, so the benchmark reports
// message and frame counts rather than scaling efficiency.
const K = 64

// stepTimeout bounds one world-wide operation. The library's Comm calls
// have no deadlines, so a lost frame would block a rank forever; the
// driver gives up after this long and the run fails instead of hanging.
const stepTimeout = 60 * time.Second

var errStuck = errors.New("world-wide operation did not finish within the step timeout")

// pool keeps one goroutine per rank alive across steps, the shape of an
// iterative solver's ranks: a step hands each running rank its work and
// waits for all of them (a closed loop with one step outstanding).
type pool struct {
	work []chan func(int) error
	done chan error // one slot per rank: a step's results never block
	wg   sync.WaitGroup
}

func newPool(k int) *pool {
	p := &pool{work: make([]chan func(int) error, k), done: make(chan error, k)}
	for r := range p.work {
		p.work[r] = make(chan func(int) error)
		p.wg.Add(1)
		go func(r int, work chan func(int) error) {
			defer p.wg.Done()
			for fn := range work {
				p.done <- fn(r)
			}
		}(r, p.work[r])
	}
	return p
}

// run executes fn on every rank and returns the first error.
func (p *pool) run(fn func(r int) error) error {
	for _, w := range p.work {
		w <- fn
	}
	timeout := time.NewTimer(stepTimeout)
	defer timeout.Stop()
	var first error
	for range p.work {
		select {
		case err := <-p.done:
			if err != nil && first == nil {
				first = err
			}
		case <-timeout.C:
			return errStuck
		}
	}
	return first
}

// stop ends the rank goroutines and waits for them; it is called between
// steps, when every rank is idle.
func (p *pool) stop() {
	for _, w := range p.work {
		close(w)
	}
	p.wg.Wait()
}

// transportKind selects the world a workload runs on. Every wire transport
// binds loopback sockets only: all traffic stays on this host.
type transportKind int

const (
	overChanpt transportKind = iota
	overUDP
	overHier
)

func (k transportKind) String() string {
	return [...]string{"chanpt", "udpnet (loopback)", "hier: chanpt intra-node + udpnet (loopback) inter-node"}[k]
}

// hierNodeSize is the simulated node size of the hier workload: ranks
// 0-31 on node 0, 32-63 on node 1.
const hierNodeSize = K / 2

// newWorld builds a K-rank world and returns its comms and a close
// function that releases sockets and goroutines.
func newWorld(kind transportKind) ([]runtime.Comm, func(), error) {
	switch kind {
	case overChanpt:
		w, err := chanpt.NewWorld(K, K)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), w.Close, nil
	case overUDP:
		w, err := udpnet.NewWorld(K)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), w.Close, nil
	case overHier:
		inner, err := chanpt.NewWorld(K, K)
		if err != nil {
			return nil, nil, err
		}
		outer, err := udpnet.NewWorld(K)
		if err != nil {
			inner.Close()
			return nil, nil, err
		}
		w, err := hier.New(hier.Config{
			Inner:  inner.Comms(),
			Outer:  outer.Comms(),
			NodeOf: func(r int) int { return r / hierNodeSize },
		})
		if err != nil {
			outer.Close()
			inner.Close()
			return nil, nil, err
		}
		return w.Comms(), func() {
			outer.Close()
			inner.Close()
		}, nil
	}
	return nil, nil, fmt.Errorf("unknown transport %d", kind)
}
