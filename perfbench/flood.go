package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/core"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// spoofer is the flood workload's attacker: from its own socket it
// sends an open-loop stream of datagrams under forged source
// principals, and counts whatever the gateway sends back to it.
// Most datagrams replay real sealed headers captured from the
// legitimate flows; the rest are runts shorter than a header.
type spoofer struct {
	conn   *net.UDPConn
	gw     *net.UDPAddr
	rng    *rand.Rand
	srcs   [][]byte // framed source+destination prefix per forged address
	replay [][]byte
	runts  [][]byte
	runtP  float64

	sent, sentBytes atomic.Uint64
	reflectedBytes  atomic.Uint64

	wg sync.WaitGroup
}

// spoofAddrs draws the forged source addresses: prefixes sprefix
// 8-byte prefixes (the length the prefilter sketch and the admission
// quota key on) disjoint from the clients' "legit-" names, spread over
// n addresses.
func spoofAddrs(r *rand.Rand, prefixes, n int) []principal.Address {
	seen := make(map[string]bool, prefixes)
	pfx := make([]string, 0, prefixes)
	for len(pfx) < prefixes {
		p := fmt.Sprintf("sp%06x", r.Intn(1<<24))
		if !seen[p] {
			seen[p] = true
			pfx = append(pfx, p)
		}
	}
	out := make([]principal.Address, n)
	for i := range out {
		out[i] = principal.Address(fmt.Sprintf("%s.%05d", pfx[i%prefixes], i/prefixes))
	}
	return out
}

// newSpoofer builds the attacker from the seed. replay holds sealed
// datagrams (header and body) the legitimate flows produced.
func newSpoofer(w workload, seed int64, gwAddr string, replay [][]byte) (*spoofer, error) {
	gw, err := net.ResolveUDPAddr("udp", gwAddr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed ^ 0x5b00f))
	s := &spoofer{conn: conn, gw: gw, rng: r, replay: replay, runtP: w.runtShare}
	dst := principal.Address(tenantAddr).Wire()
	for _, a := range spoofAddrs(r, w.spoofPrefixes, w.spoofAddrs) {
		s.srcs = append(s.srcs, append(a.Wire(), dst...))
	}
	for i := 0; i < 1024; i++ {
		b := make([]byte, 1+r.Intn(core.HeaderSize-1))
		r.Read(b)
		s.runts = append(s.runts, b)
	}
	s.wg.Add(1)
	go s.absorb()
	return s, nil
}

// absorb counts the bytes the gateway reflects to forged sources.
func (s *spoofer) absorb() {
	defer s.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, _, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		s.reflectedBytes.Add(uint64(n))
	}
}

// run sends rate datagrams per second on a fixed schedule for d.
func (s *spoofer) run(rate float64, d time.Duration) {
	frame := make([]byte, 0, 2048)
	start := time.Now()
	interval := float64(time.Second) / rate
	total := int(rate * d.Seconds())
	for i := 0; i < total; {
		elapsed := time.Since(start)
		due := int(float64(elapsed) / interval)
		if due > total {
			due = total
		}
		for ; i < due; i++ {
			frame = append(frame[:0], s.srcs[s.rng.Intn(len(s.srcs))]...)
			if s.rng.Float64() < s.runtP {
				frame = append(frame, s.runts[s.rng.Intn(len(s.runts))]...)
			} else {
				frame = append(frame, s.replay[s.rng.Intn(len(s.replay))]...)
			}
			if _, err := s.conn.WriteToUDP(frame, s.gw); err == nil {
				s.sent.Add(1)
				s.sentBytes.Add(uint64(len(frame)))
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the reflection counter and waits for it.
func (s *spoofer) close() {
	s.conn.Close()
	s.wg.Wait()
}

// replayPool seals n real requests from the warm flows without sending
// them; the spoofer replays their bytes under forged sources.
func replayPool(e *engine, n int) [][]byte {
	var out [][]byte
	for i := 0; len(out) < n && i < 4*n; i++ {
		flow := i % len(e.f.eps)
		seq := e.seq.Add(1)
		wire, err := e.f.eps[flow].SealAppend(nil, transport.Datagram{Source: e.f.names[flow],
			Destination: e.f.tenant, Payload: e.gen.fill(nil, seq, flow, 0)}, e.secret)
		if err == nil {
			out = append(out, wire)
		}
	}
	return out
}
