//go:build linux && (amd64 || arm64)

// Batched socket I/O via sendmmsg/recvmmsg: a whole sender drain pass (or
// receive burst) crosses the kernel boundary in one syscall instead of
// one per datagram — the transport-level analogue of the paper's message
// regularization. The raw syscalls run through net's RawConn so the
// sockets stay registered with the Go netpoller: MSG_DONTWAIT plus the
// Read/Write ready-callbacks give blocking semantics without pinning OS
// threads.
package udpnet

import (
	"net"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit Linux.
type mmsghdr struct {
	hdr    syscall.Msghdr
	msgLen uint32
	_      [4]byte
}

// batchIO holds one rank's precomputed destination sockaddrs and syscall
// scratch. The sender goroutine owns the s* halves, the receiver the r*
// halves; they never touch each other's.
//
// The RawConn Write/Read callbacks are method values bound once in
// newBatchIO: a closure handed to RawConn escapes, so building one per
// call would allocate it and every variable it captures on each batch.
// Their per-call state lives in the fields beside them instead.
type batchIO struct {
	raddrs []syscall.RawSockaddrInet4
	shdrs  [sendBatchMax]mmsghdr
	siov   [sendBatchMax]syscall.Iovec
	rhdrs  [recvBatchMax]mmsghdr
	riov   [recvBatchMax]syscall.Iovec

	sendFn func(fd uintptr) bool // b.sendReady
	sn     int                   // datagrams in the current sendmmsg batch
	sent   int                   // of them, accepted or skipped so far
	serrs  int                   // datagrams refused in the current send call

	recvFn func(fd uintptr) bool // b.recvReady
	rn     int                   // headers offered to recvmmsg
	rgot   int                   // datagrams received
	rerr   error                 // socket error other than EAGAIN/EINTR
}

// newBatchIO precomputes raw IPv4 sockaddrs for every rank. A non-IPv4
// address disables the fast path (nil return selects the portable loop).
func newBatchIO(addrs []*net.UDPAddr) *batchIO {
	b := &batchIO{raddrs: make([]syscall.RawSockaddrInet4, len(addrs))}
	for i, a := range addrs {
		ip := a.IP.To4()
		if ip == nil {
			return nil
		}
		sa := &b.raddrs[i]
		sa.Family = syscall.AF_INET
		// sin_port is network byte order (the build tags pin us to
		// little-endian hosts).
		sa.Port = uint16(a.Port>>8) | uint16(a.Port&0xff)<<8
		copy(sa.Addr[:], ip)
	}
	b.sendFn = b.sendReady
	b.recvFn = b.recvReady
	return b
}

// send transmits the batch with as few sendmmsg calls as possible and
// returns the number of datagrams the socket refused (dropped; the
// reliability layer recovers them).
func (b *batchIO) send(rc syscall.RawConn, batch []sendEntry) (errs int) {
	b.serrs = 0
	off := 0
	for off < len(batch) {
		n := len(batch) - off
		if n > sendBatchMax {
			n = sendBatchMax
		}
		for i := 0; i < n; i++ {
			e := &batch[off+i]
			b.siov[i].Base = &e.buf[0]
			b.siov[i].SetLen(len(e.buf))
			h := &b.shdrs[i]
			h.hdr = syscall.Msghdr{}
			h.hdr.Name = (*byte)(unsafe.Pointer(&b.raddrs[e.to]))
			h.hdr.Namelen = syscall.SizeofSockaddrInet4
			h.hdr.Iov = &b.siov[i]
			h.hdr.Iovlen = 1
			h.msgLen = 0
		}
		b.sn, b.sent = n, 0
		if err := rc.Write(b.sendFn); err != nil {
			return b.serrs + len(batch) - off - b.sent
		}
		off += n
	}
	return b.serrs
}

// sendReady is the RawConn.Write callback: it pushes shdrs[sent:sn]
// through sendmmsg until the batch is done or the socket would block.
func (b *batchIO) sendReady(fd uintptr) bool {
	for b.sent < b.sn {
		r, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&b.shdrs[b.sent])), uintptr(b.sn-b.sent),
			syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			b.sent += int(r)
		case syscall.EINTR:
			// retry
		case syscall.EAGAIN:
			return false
		default:
			// sendmmsg only errors when its FIRST datagram fails
			// (ENOBUFS, ICMP-driven refusals during teardown): skip
			// that one and keep the rest of the batch moving.
			b.serrs++
			b.sent++
		}
	}
	return true
}

// recv fills bufs with one recvmmsg batch, blocking (via the netpoller)
// until at least one datagram is available. lens[i] receives datagram i's
// byte length.
func (b *batchIO) recv(rc syscall.RawConn, bufs [][]byte, lens []int) (int, error) {
	n := len(bufs)
	if n > recvBatchMax {
		n = recvBatchMax
	}
	for i := 0; i < n; i++ {
		b.riov[i].Base = &bufs[i][0]
		b.riov[i].SetLen(len(bufs[i]))
		h := &b.rhdrs[i]
		h.hdr = syscall.Msghdr{}
		h.hdr.Iov = &b.riov[i]
		h.hdr.Iovlen = 1
		h.msgLen = 0
	}
	b.rn, b.rgot, b.rerr = n, 0, nil
	if err := rc.Read(b.recvFn); err != nil {
		return 0, err // socket closed
	}
	if b.rerr != nil {
		return 0, b.rerr
	}
	for i := 0; i < b.rgot; i++ {
		lens[i] = int(b.rhdrs[i].msgLen)
	}
	return b.rgot, nil
}

// recvReady is the RawConn.Read callback: one recvmmsg over rhdrs[:rn].
func (b *batchIO) recvReady(fd uintptr) bool {
	r, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
		uintptr(unsafe.Pointer(&b.rhdrs[0])), uintptr(b.rn),
		syscall.MSG_DONTWAIT, 0, 0)
	switch errno {
	case 0:
		b.rgot = int(r)
		return true
	case syscall.EINTR, syscall.EAGAIN:
		return false
	case syscall.ECONNREFUSED:
		// Queued ICMP error from a peer mid-teardown; consume and go
		// back to the socket.
		return false
	default:
		b.rerr = errno
		return true
	}
}
