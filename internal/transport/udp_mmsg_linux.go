//go:build linux && (amd64 || arm64)

package transport

import (
	"fmt"
	"net/netip"
	"syscall"
	"unsafe"

	"fbs/internal/principal"
)

// sendmmsg/recvmmsg plumbing. Go's frozen syscall package predates
// sendmmsg, so the two vector calls are issued raw: hand-built
// mmsghdr/msghdr/iovec structures (both supported architectures are
// 64-bit little-endian Linux, so one layout serves), syscall numbers
// from the per-arch files, and the net.UDPConn's SyscallConn for
// readiness integration — the raw fd is only ever touched inside
// RawConn.Read/Write callbacks, so Go's runtime poller keeps ownership
// of blocking.

const mmsgAvailable = true

// mmsgMaxBatch bounds one vector call: enough to amortise the syscall
// to noise, small enough that the cached receive buffers stay modest
// (mmsgMaxBatch × mmsgSlotSize = 2 MiB).
const (
	mmsgMaxBatch = 32
	mmsgSlotSize = 65536
)

// UDP generic segmentation offload. A run of consecutive frames with
// one destination and one size can ride a single sendmsg as one
// super-buffer with a UDP_SEGMENT control message: the kernel splits it
// into wire datagrams itself, so the per-datagram cost of traversing
// the socket layer is paid once per run instead of once per datagram —
// on top of what sendmmsg already amortises. The receiver needs nothing
// special: segmentation happens before delivery, so recvmmsg sees
// ordinary datagrams. Kernels without UDP_SEGMENT reject the control
// message with EINVAL; the first rejection latches gsoBroken and the
// socket quietly stays on plain sendmmsg.
const (
	solUDP        = 17  // SOL_UDP, the cmsg level for UDP socket options
	udpSegment    = 103 // UDP_SEGMENT
	maxGSOSegs    = 64  // kernel UDP_MAX_SEGMENTS
	maxGSOPayload = 65000
)

// gsoCmsg is struct cmsghdr plus the uint16 segment size, padded so an
// array of them keeps each header 8-byte aligned. Controllen must be
// CmsgLen(2) = 18, not the padded size.
type gsoCmsg struct {
	len   uint64
	level int32
	typ   int32
	seg   uint16
	_     [6]byte
}

const gsoCmsgLen = 18

// sendGroup is one message of a vector send: count frames packed
// contiguously in the arena starting at off, size bytes total. count >
// 1 means a GSO run of equal segSize-byte frames.
type sendGroup struct {
	off     int
	size    int
	segSize int
	count   int
	first   int // index of the run's first datagram (for its sockaddr)
}

// mmsgSendScratch and mmsgRecvScratch are a socket's vector-call
// structures, kept across calls (under sendMu and recvMu) rather than
// built per call: the kernel reads them through raw pointers, so as
// locals they would escape to the heap on every batch. Each also holds
// the socket's RawConn and the poller callback, bound once, with the
// callback's arguments and results in fields: a per-call closure and
// RawConn would be heap garbage on every batch.
type mmsgSendScratch struct {
	addrs  [mmsgMaxBatch]rawSockaddrInet4
	offs   [mmsgMaxBatch + 1]int
	groups [mmsgMaxBatch]sendGroup
	iovs   [mmsgMaxBatch]iovec
	hdrs   [mmsgMaxBatch]mmsghdr
	cmsgs  [mmsgMaxBatch]gsoCmsg

	rc    syscall.RawConn
	write func(fd uintptr) bool // sc.sendmmsg
	ng    int                   // messages to send
	sent  int                   // messages sent
	errno syscall.Errno
}

type mmsgRecvScratch struct {
	iovs  [mmsgMaxBatch]iovec
	hdrs  [mmsgMaxBatch]mmsghdr
	names [mmsgMaxBatch]rawSockaddrInet6
	// bufs are the receive slots: ReceiveBatch payloads alias them
	// until the next call.
	bufs [mmsgMaxBatch][]byte

	rc    syscall.RawConn
	read  func(fd uintptr) bool // sc.recvmmsg
	batch int                   // slots offered
	got   int                   // messages received
	errno syscall.Errno
}

// sendmmsg is the send poller callback: it sends messages sent..ng-1,
// returning false to wait for writability when the socket is full.
func (sc *mmsgSendScratch) sendmmsg(fd uintptr) bool {
	for sc.sent < sc.ng {
		r, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&sc.hdrs[sc.sent])), uintptr(sc.ng-sc.sent),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false // block until writable, then retry
		}
		if e == syscall.EINTR {
			continue
		}
		if e != 0 {
			sc.errno = e
			return true
		}
		sc.sent += int(r)
	}
	return true
}

// recvmmsg is the receive poller callback: it fills up to batch slots,
// returning false to wait for readability when the socket is empty.
func (sc *mmsgRecvScratch) recvmmsg(fd uintptr) bool {
	for {
		r, _, e := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&sc.hdrs[0])), uintptr(sc.batch),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false // block until readable
		}
		if e == syscall.EINTR {
			continue
		}
		if e != 0 {
			sc.errno = e
			return true
		}
		sc.got = int(r)
		return true
	}
}

type iovec struct {
	Base *byte
	Len  uint64
}

type msghdr struct {
	Name       *byte
	Namelen    uint32
	_          [4]byte
	Iov        *iovec
	Iovlen     uint64
	Control    *byte
	Controllen uint64
	Flags      int32
	_          [4]byte
}

type mmsghdr struct {
	Hdr msghdr
	Len uint32
	_   [4]byte
}

type rawSockaddrInet4 struct {
	Family uint16
	Port   uint16 // network byte order
	Addr   [4]byte
	Zero   [8]byte
}

// rawSockaddrInet6 is struct sockaddr_in6, the largest name a UDP
// socket reports: each recvmmsg slot gets one, and an AF_INET source
// fills its rawSockaddrInet4-shaped prefix.
type rawSockaddrInet6 struct {
	Family   uint16
	Port     uint16 // network byte order
	Flowinfo uint32
	Addr     [16]byte
	ScopeID  uint32
}

// addrPort decodes the source address recvmmsg wrote into a slot's
// name buffer. ok is false for a family (or an IPv6 scope) the fast
// path does not parse; Go's own receive path parses those.
func (sa *rawSockaddrInet6) addrPort() (ap netip.AddrPort, ok bool) {
	port := sa.Port<<8 | sa.Port>>8
	switch sa.Family {
	case syscall.AF_INET:
		a4 := (*rawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(a4.Addr), port), true
	case syscall.AF_INET6:
		if sa.ScopeID != 0 {
			return netip.AddrPort{}, false
		}
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), port), true
	}
	return netip.AddrPort{}, false
}

// sendBatchMmsg transmits dgs with sendmmsg, coalescing equal-size
// same-destination runs into GSO super-packets. handled == false means
// the socket or peer set cannot take the fast path (an IPv6 peer; a
// missing mapping is still a real error) and the caller must fall back.
func (u *UDPTransport) sendBatchMmsg(dgs []Datagram) (n int, err error, handled bool) {
	if len(dgs) == 0 {
		return 0, nil, true
	}
	// One batch send at a time per socket: the kernel serialises socket
	// writes anyway, and holding the lock across the syscall keeps the
	// iovecs' view of the shared arena stable.
	u.sendMu.Lock()
	defer u.sendMu.Unlock()
	total := len(dgs)
	done := 0
	for done < total {
		batch := total - done
		if batch > mmsgMaxBatch {
			batch = mmsgMaxBatch
		}
		sent, serr, ok := u.sendChunkMmsg(dgs[done : done+batch])
		if !ok {
			return 0, nil, false // IPv6 peer: portable loop handles it
		}
		done += sent
		if serr != nil {
			return done, serr, true
		}
	}
	return done, nil, true
}

// sendChunkMmsg sends up to mmsgMaxBatch datagrams with one vector
// call, retrying without GSO if the kernel rejects UDP_SEGMENT.
func (u *UDPTransport) sendChunkMmsg(dgs []Datagram) (n int, err error, handled bool) {
	batch := len(dgs)
	if u.sendScratch == nil {
		rc, err := u.conn.SyscallConn()
		if err != nil {
			return 0, err, true
		}
		sc := &mmsgSendScratch{rc: rc}
		sc.write = sc.sendmmsg
		u.sendScratch = sc
	}
	addrs, offs := &u.sendScratch.addrs, &u.sendScratch.offs
	// Frames are packed into one reusable arena rather than allocated
	// per datagram; iovecs are built only after the arena stops
	// growing, since append may move it.
	arena := u.sendArena[:0]
	// A datagram without a mapping stops the batch there: the prefix
	// before it is still sent, so the returned count names exactly the
	// datagrams handed off, as a loop of Send calls would.
	var mapErr error
	for i := 0; i < batch; i++ {
		dg := &dgs[i]
		if dg.Source == "" {
			dg.Source = u.local
		}
		u.mu.RLock()
		peer, ok := u.peers[dg.Destination]
		u.mu.RUnlock()
		if !ok {
			mapErr = fmt.Errorf("transport: no UDP mapping for principal %q", dg.Destination)
			batch = i
			break
		}
		ip4 := peer.IP.To4()
		if ip4 == nil {
			return 0, nil, false
		}
		addrs[i].Family = syscall.AF_INET
		p := uint16(peer.Port)
		addrs[i].Port = p<<8 | p>>8
		copy(addrs[i].Addr[:], ip4)
		offs[i] = len(arena)
		arena = appendWireAddress(arena, dg.Source)
		arena = appendWireAddress(arena, dg.Destination)
		arena = append(arena, dg.Payload...)
	}
	offs[batch] = len(arena)
	u.sendArena = arena
	if batch == 0 {
		return 0, mapErr, true
	}

	gso := u.gsoBroken.Load() == 0
	for {
		sent, callErr := u.sendGroupsMmsg(arena, addrs[:batch], offs[:batch+1], gso)
		if gso && callErr == syscall.EINVAL {
			// The kernel refused a UDP_SEGMENT control message; latch it
			// and resend whatever remains as plain per-datagram messages.
			u.gsoBroken.Store(1)
			gso = false
			n += sent
			dgsLeft := batch - n
			if dgsLeft == 0 {
				return n, mapErr, true
			}
			copy(offs[:dgsLeft+1], offs[n:batch+1])
			copy(addrs[:dgsLeft], addrs[n:batch])
			batch = dgsLeft
			continue
		}
		n += sent
		if callErr != nil {
			return n, fmt.Errorf("transport: sendmmsg: %w", callErr), true
		}
		return n, mapErr, true
	}
}

// sendGroupsMmsg issues one sendmmsg over the packed frames, grouping
// GSO runs when gso is set. It returns the number of DATAGRAMS fully
// sent (message sends are whole groups, so the count maps exactly).
func (u *UDPTransport) sendGroupsMmsg(arena []byte, addrs []rawSockaddrInet4, offs []int, gso bool) (int, error) {
	batch := len(addrs)
	sc := u.sendScratch
	groups := &sc.groups
	ng := 0
	for i := 0; i < batch; i++ {
		size := offs[i+1] - offs[i]
		if gso && ng > 0 {
			g := &groups[ng-1]
			if size == g.segSize && addrs[i] == addrs[g.first] &&
				g.count < maxGSOSegs && g.size+size <= maxGSOPayload {
				g.size += size
				g.count++
				continue
			}
		}
		groups[ng] = sendGroup{off: offs[i], size: size, segSize: size, count: 1, first: i}
		ng++
	}

	iovs, hdrs, cmsgs := &sc.iovs, &sc.hdrs, &sc.cmsgs
	for g := 0; g < ng; g++ {
		gr := &groups[g]
		iovs[g] = iovec{Base: &arena[gr.off], Len: uint64(gr.size)}
		hdrs[g].Hdr = msghdr{
			Name:    (*byte)(unsafe.Pointer(&addrs[gr.first])),
			Namelen: uint32(unsafe.Sizeof(addrs[gr.first])),
			Iov:     &iovs[g],
			Iovlen:  1,
		}
		if gr.count > 1 {
			cmsgs[g] = gsoCmsg{len: gsoCmsgLen, level: solUDP, typ: udpSegment, seg: uint16(gr.segSize)}
			hdrs[g].Hdr.Control = (*byte)(unsafe.Pointer(&cmsgs[g]))
			hdrs[g].Hdr.Controllen = gsoCmsgLen
		}
	}

	sc.ng, sc.sent, sc.errno = ng, 0, 0
	werr := sc.rc.Write(sc.write)
	dgSent := 0
	for g := 0; g < sc.sent; g++ {
		dgSent += groups[g].count
	}
	if werr != nil {
		return dgSent, werr
	}
	if sc.errno != 0 {
		return dgSent, sc.errno
	}
	return dgSent, nil
}

// recvBatchMmsg fills buf with recvmmsg: it blocks for the first
// datagram (via the runtime poller) and returns whatever else the
// socket already holds, up to min(len(buf), mmsgMaxBatch). Each
// payload aliases its receive slot — valid until the next receive on
// this socket, as BatchConn documents — and the addresses come from
// the socket's intern table, so the steady state allocates nothing.
// Frames that fail address decoding are skipped, exactly as a Receive
// loop would surface them one error at a time — except the batch path
// drops them silently to keep the happy-path contract simple; the
// single-datagram path remains the debugging tool for malformed
// framing. With learning on, each well-formed frame teaches its
// source's reply route in slot order, through the same rule Receive
// applies; a source address the fast path cannot parse latches the
// socket to the portable path, whose Receive parses it.
func (u *UDPTransport) recvBatchMmsg(buf []Datagram) (n int, err error, handled bool) {
	batch := len(buf)
	if batch > mmsgMaxBatch {
		batch = mmsgMaxBatch
	}
	u.recvMu.Lock()
	defer u.recvMu.Unlock()
	if u.recvScratch == nil {
		rc, err := u.conn.SyscallConn()
		if err != nil {
			return 0, ErrClosed, true
		}
		sc := &mmsgRecvScratch{rc: rc}
		sc.read = sc.recvmmsg
		for i := range sc.bufs {
			sc.bufs[i] = make([]byte, mmsgSlotSize)
		}
		u.recvScratch = sc
	}
	sc := u.recvScratch
	iovs, hdrs, names := &sc.iovs, &sc.hdrs, &sc.names
	for i := 0; i < batch; i++ {
		iovs[i] = iovec{Base: &sc.bufs[i][0], Len: mmsgSlotSize}
		hdrs[i].Hdr = msghdr{
			Name:    (*byte)(unsafe.Pointer(&names[i])),
			Namelen: uint32(unsafe.Sizeof(names[i])),
			Iov:     &iovs[i],
			Iovlen:  1,
		}
	}
	sc.batch, sc.got, sc.errno = batch, 0, 0
	if perr := sc.rc.Read(sc.read); perr != nil || sc.errno != 0 {
		return 0, ErrClosed, true
	}
	learn := u.learn.Load()
	n = 0
	for i := 0; i < sc.got; i++ {
		b := sc.bufs[i][:hdrs[i].Len]
		src, used, ok := u.internAddress(b)
		if !ok {
			continue
		}
		b = b[used:]
		dst, used, ok := u.internAddress(b)
		if !ok {
			continue
		}
		b = b[used:]
		if learn {
			if from, ok := names[i].addrPort(); ok {
				u.learnRoute(src, from)
			} else {
				u.mmsgBroken.Store(1)
			}
		}
		buf[n] = Datagram{Source: src, Destination: dst, Payload: b[:len(b):len(b)]}
		n++
	}
	if n == 0 && sc.got > 0 {
		// Every frame in the batch was malformed; report one receive
		// with no datagrams rather than blocking again, so callers see
		// progress (the loop path would have returned the decode error).
		return 0, fmt.Errorf("transport: bad frame batch"), true
	}
	return n, nil, true
}

// internAddress decodes one length-prefixed address, returning the
// socket's canonical string for it — a map hit costs no allocation —
// and ok == false for a truncated one (the batch path drops those
// without building an error). The table is capped so a flood of forged
// source addresses cannot grow it without bound. Caller holds recvMu.
func (u *UDPTransport) internAddress(b []byte) (a principal.Address, used int, ok bool) {
	if len(b) < 2 {
		return "", 0, false
	}
	n := int(b[0])<<8 | int(b[1])
	if len(b) < 2+n {
		return "", 0, false
	}
	raw := b[2 : 2+n]
	// A map probe keyed by string(raw) does not allocate; only a miss
	// materialises the string.
	if a, ok := u.addrIntern[string(raw)]; ok {
		return a, 2 + n, true
	}
	a = principal.Address(raw)
	if u.addrIntern == nil {
		u.addrIntern = make(map[string]principal.Address)
	}
	if len(u.addrIntern) < 1024 {
		u.addrIntern[string(a)] = a
	}
	return a, 2 + n, true
}
