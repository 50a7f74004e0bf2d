package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"fbs/internal/principal"
)

// UDPTransport runs the FBS datagram abstraction over real UDP sockets,
// so two processes (or two machines) can speak FBS to each other. Each
// datagram is framed as the length-prefixed source and destination
// principal addresses followed by the payload. The framing predates
// tracing and is unchanged by it: Datagram.Trace is not serialized, so
// traces over UDP cover the sending process only.
type UDPTransport struct {
	local principal.Address
	conn  *net.UDPConn

	learn atomic.Bool

	mu    sync.RWMutex
	peers map[principal.Address]*net.UDPAddr
	// origins interns learned route values: every principal seen from
	// one UDP origin shares a single *net.UDPAddr, so a stream of
	// principals behind one socket costs one map entry each, not one
	// address allocation each.
	origins map[netip.AddrPort]*net.UDPAddr

	batchState
}

// NewUDPTransport binds a UDP socket on listenAddr (e.g. "127.0.0.1:7001")
// for the given principal.
func NewUDPTransport(local principal.Address, listenAddr string) (*UDPTransport, error) {
	ua, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolving %q: %w", listenAddr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %q: %w", listenAddr, err)
	}
	return &UDPTransport{
		local:   local,
		conn:    conn,
		peers:   make(map[principal.Address]*net.UDPAddr),
		origins: make(map[netip.AddrPort]*net.UDPAddr),
	}, nil
}

// LocalAddr returns the bound UDP address (useful with port 0).
func (u *UDPTransport) LocalAddr() *net.UDPAddr {
	return u.conn.LocalAddr().(*net.UDPAddr)
}

// AddPeer maps a principal address to the UDP address where it listens.
func (u *UDPTransport) AddPeer(peer principal.Address, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: resolving peer %q: %w", addr, err)
	}
	u.mu.Lock()
	u.peers[peer] = ua
	u.mu.Unlock()
	return nil
}

// SetLearnPeers makes every receive path — Receive, and ReceiveBatch
// on both its recvmmsg and portable forms — record each frame's source
// principal → UDP origin mapping: the reply-to-observed-source
// behaviour a server needs to answer clients it has no static peer
// table for (a gateway cannot enumerate its clients in advance). Later
// frames from the same principal update the mapping, so a client that
// re-binds keeps working; static AddPeer entries are overwritten the
// same way. Only well-formed frames teach a route.
func (u *UDPTransport) SetLearnPeers(on bool) { u.learn.Store(on) }

// learnRoute applies the learning rule every receive path shares: the
// latest UDP origin a principal was seen from wins. A principal seen
// again from the route it already holds costs one read lock; the write
// lock is taken only when a route changes.
func (u *UDPTransport) learnRoute(src principal.Address, from netip.AddrPort) {
	if !u.learn.Load() {
		return
	}
	u.mu.RLock()
	cur, route := u.peers[src], u.origins[from]
	u.mu.RUnlock()
	if cur != nil && cur == route {
		return
	}
	u.mu.Lock()
	if route = u.origins[from]; route == nil {
		route = net.UDPAddrFromAddrPort(from)
		u.origins[from] = route
	}
	u.peers[src] = route
	u.mu.Unlock()
}

// Send implements Transport.
func (u *UDPTransport) Send(dg Datagram) error {
	if dg.Source == "" {
		dg.Source = u.local
	}
	u.mu.RLock()
	peer, ok := u.peers[dg.Destination]
	u.mu.RUnlock()
	if !ok {
		return fmt.Errorf("transport: no UDP mapping for principal %q", dg.Destination)
	}
	frame := make([]byte, 0, 4+len(dg.Source)+len(dg.Destination)+len(dg.Payload))
	frame = appendWireAddress(frame, dg.Source)
	frame = appendWireAddress(frame, dg.Destination)
	frame = append(frame, dg.Payload...)
	_, err := u.conn.WriteToUDP(frame, peer)
	return err
}

// recvBufPool recycles Receive's 64 KiB read buffers: the frame is
// decoded into an owned Datagram before the buffer goes back, so one
// buffer per concurrent receiver is all the path ever holds.
var recvBufPool = sync.Pool{New: func() any {
	b := make([]byte, 65536)
	return &b
}}

// Receive implements Transport.
func (u *UDPTransport) Receive() (Datagram, error) {
	bp := recvBufPool.Get().(*[]byte)
	defer recvBufPool.Put(bp)
	n, from, err := u.conn.ReadFromUDPAddrPort(*bp)
	if err != nil {
		return Datagram{}, ErrClosed
	}
	dg, err := decodeFrame((*bp)[:n])
	if err != nil {
		return Datagram{}, err
	}
	u.learnRoute(dg.Source, from)
	return dg, nil
}

// Close implements Transport.
func (u *UDPTransport) Close() error { return u.conn.Close() }

// appendWireAddress appends the length-prefixed wire form of a without
// the intermediate allocation Address.Wire makes.
func appendWireAddress(b []byte, a principal.Address) []byte {
	b = append(b, byte(len(a)>>8), byte(len(a)))
	return append(b, a...)
}

// decodeFrame parses one wire frame (length-prefixed source and
// destination addresses, then payload) into an owned Datagram.
func decodeFrame(b []byte) (Datagram, error) {
	src, used, err := principal.DecodeAddress(b)
	if err != nil {
		return Datagram{}, fmt.Errorf("transport: bad frame: %w", err)
	}
	b = b[used:]
	dst, used, err := principal.DecodeAddress(b)
	if err != nil {
		return Datagram{}, fmt.Errorf("transport: bad frame: %w", err)
	}
	b = b[used:]
	payload := make([]byte, len(b))
	copy(payload, b)
	return Datagram{Source: src, Destination: dst, Payload: payload}, nil
}
