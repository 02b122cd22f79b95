//go:build linux && (amd64 || arm64)

package udpnet

import (
	"net"
	"testing"
)

// TestBatchIOSteadyStateAllocFree pins the batched socket path to zero
// allocations per call: a send of one datagram and a recv of one datagram
// over a loopback socket pair, after warm-up.
func TestBatchIOSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on synchronization edges")
	}
	var conns [2]*net.UDPConn
	addrs := make([]*net.UDPAddr, 2)
	for i := range conns {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i], addrs[i] = c, c.LocalAddr().(*net.UDPAddr)
	}
	src, err := conns[0].SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := conns[1].SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	sb, rb := newBatchIO(addrs), newBatchIO(addrs)
	if sb == nil || rb == nil {
		t.Fatal("IPv4 loopback addresses disabled the batch path")
	}
	batch := []sendEntry{{buf: []byte("steady-state datagram"), to: 1}}
	bufs := [][]byte{make([]byte, maxDatagram)}
	lens := make([]int, 1)

	// AllocsPerRun calls f runs+1 times; the socket buffer holds every
	// datagram sent before the receive side drains them.
	const runs = 50
	if a := testing.AllocsPerRun(runs, func() {
		if errs := sb.send(src, batch); errs != 0 {
			t.Fatalf("send refused %d datagrams", errs)
		}
	}); a != 0 {
		t.Errorf("send: %v allocs per call, want 0", a)
	}
	if a := testing.AllocsPerRun(runs, func() {
		n, err := rb.recv(dst, bufs, lens)
		if err != nil || n != 1 || lens[0] != len(batch[0].buf) {
			t.Fatalf("recv: n=%d len=%d err=%v", n, lens[0], err)
		}
	}); a != 0 {
		t.Errorf("recv: %v allocs per call, want 0", a)
	}
}
