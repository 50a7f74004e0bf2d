package transport

import (
	"sync"
	"sync/atomic"

	"fbs/internal/principal"
)

// Batched UDP I/O. On Linux (amd64/arm64) SendBatch and ReceiveBatch
// drive the kernel's sendmmsg/recvmmsg, paying one syscall for a whole
// batch of datagrams; elsewhere — or when the fast path reports the
// socket shape it cannot handle — they degrade to a loop of the
// single-datagram calls with identical semantics. The framing is
// byte-for-byte the framing Send and Receive use, so a batched sender
// interoperates with a loop receiver and vice versa (the equivalence
// test in udp_batch_test.go pins this).

// SetPortableBatch forces the portable loop fallback even where mmsg is
// available, so tests can compare the two paths on one platform.
func (u *UDPTransport) SetPortableBatch(v bool) {
	if v {
		u.portable.Store(1)
	} else {
		u.portable.Store(0)
	}
}

// usePortable reports whether batch calls must take the loop fallback.
func (u *UDPTransport) usePortable() bool {
	return !mmsgAvailable || u.portable.Load() != 0 || u.mmsgBroken.Load() != 0
}

// SendBatch implements BatchConn over sendmmsg where available.
func (u *UDPTransport) SendBatch(dgs []Datagram) (int, error) {
	if !u.usePortable() {
		n, err, handled := u.sendBatchMmsg(dgs)
		if handled {
			return n, err
		}
		// The fast path could not represent this socket or peer set
		// (e.g. an IPv6 peer); remember and degrade permanently.
		u.mmsgBroken.Store(1)
	}
	for i := range dgs {
		if err := u.Send(dgs[i]); err != nil {
			return i, err
		}
	}
	return len(dgs), nil
}

// ReceiveBatch implements BatchConn over recvmmsg where available: it
// blocks for the first datagram, then returns whatever else the socket
// already holds, up to len(buf). On the recvmmsg path the payloads
// alias the socket's receive slots, so they are valid only until the
// next ReceiveBatch on this transport.
func (u *UDPTransport) ReceiveBatch(buf []Datagram) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	if !u.usePortable() {
		n, err, handled := u.recvBatchMmsg(buf)
		if handled {
			return n, err
		}
		u.mmsgBroken.Store(1)
	}
	dg, err := u.Receive()
	if err != nil {
		return 0, err
	}
	buf[0] = dg
	return 1, nil
}

// batchState is embedded in UDPTransport: the fallback switches plus
// the reusable per-socket batch scratch (the sendmmsg frame arena, both
// directions' vector-call structures — the receive side's with its
// slot buffers — and the receive-side address intern table).
// Batched sends and receives on one socket each serialise on their
// mutex, which matches how a sharded deployment drives one socket per
// shard.
type batchState struct {
	portable   atomic.Int32
	mmsgBroken atomic.Int32
	gsoBroken  atomic.Int32

	recvMu      sync.Mutex
	recvScratch *mmsgRecvScratch
	addrIntern  map[string]principal.Address

	sendMu      sync.Mutex
	sendArena   []byte
	sendScratch *mmsgSendScratch
}
