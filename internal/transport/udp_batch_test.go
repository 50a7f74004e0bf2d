package transport

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"fbs/internal/principal"
)

// udpPair binds two loopback UDP transports mapped at each other.
func udpPair(t *testing.T) (*UDPTransport, *UDPTransport) {
	t.Helper()
	a, err := NewUDPTransport("ua", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewUDPTransport("ub", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := a.AddPeer("ub", b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("ua", a.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// collect receives exactly want datagrams via ReceiveBatch, with a
// deadline so a lost-datagram bug fails instead of hanging. A payload
// is valid only until the next ReceiveBatch, so each is copied out.
func collect(t *testing.T, tr Transport, want int) []Datagram {
	t.Helper()
	out := make([]Datagram, 0, want)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]Datagram, 16)
		for len(out) < want {
			n, err := ReceiveBatch(tr, buf)
			if err != nil {
				t.Errorf("ReceiveBatch: %v", err)
				return
			}
			for _, dg := range buf[:n] {
				dg.Payload = append([]byte(nil), dg.Payload...)
				out = append(out, dg)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out with %d/%d datagrams", len(out), want)
	}
	return out
}

// deliverySet canonicalises a batch of datagrams for multiset
// comparison (UDP may reorder even on loopback).
func deliverySet(dgs []Datagram) []string {
	out := make([]string, len(dgs))
	for i, dg := range dgs {
		out[i] = fmt.Sprintf("%s->%s:%x", dg.Source, dg.Destination, dg.Payload)
	}
	sort.Strings(out)
	return out
}

// TestUDPBatchFallbackEquivalence pins the BatchConn contract: the mmsg
// fast path and the portable loop fallback produce identical delivery
// sets for the same send sequence, in every pairing (mmsg→mmsg,
// mmsg→loop, loop→mmsg, loop→loop). On platforms without mmsg all four
// cases exercise the loop, and the test still verifies batch calls
// round-trip.
func TestUDPBatchFallbackEquivalence(t *testing.T) {
	const N = 50
	mkBatch := func() []Datagram {
		dgs := make([]Datagram, N)
		for i := range dgs {
			dgs[i] = Datagram{
				Source:      "ua",
				Destination: "ub",
				Payload:     []byte(fmt.Sprintf("dg-%03d", i)),
			}
		}
		return dgs
	}
	var sets [][]string
	for _, mode := range []struct {
		name               string
		sendPort, recvPort bool
	}{
		{"mmsg-to-mmsg", false, false},
		{"mmsg-to-loop", false, true},
		{"loop-to-mmsg", true, false},
		{"loop-to-loop", true, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			a, b := udpPair(t)
			a.SetPortableBatch(mode.sendPort)
			b.SetPortableBatch(mode.recvPort)
			dgs := mkBatch()
			sent, err := SendBatch(a, dgs)
			if err != nil {
				t.Fatal(err)
			}
			if sent != N {
				t.Fatalf("sent %d of %d", sent, N)
			}
			got := collect(t, b, N)
			sets = append(sets, deliverySet(got))
		})
	}
	for i := 1; i < len(sets); i++ {
		if len(sets[i]) != len(sets[0]) {
			t.Fatalf("mode %d delivered %d datagrams, mode 0 delivered %d", i, len(sets[i]), len(sets[0]))
		}
		for j := range sets[i] {
			if sets[i][j] != sets[0][j] {
				t.Fatalf("mode %d delivery set diverges at %d: %q vs %q", i, j, sets[i][j], sets[0][j])
			}
		}
	}
}

// TestNetworkBatchMatchesLoop pins the in-memory network's batched
// sends against a loop of single sends under an impaired fault model:
// the RNG draws per datagram in order either way, so with the same seed
// the two delivery sequences are identical.
func TestNetworkBatchMatchesLoop(t *testing.T) {
	imp := Impairments{LossProb: 0.2, DupProb: 0.1, ReorderProb: 0.15, CorruptProb: 0.1, Seed: 42}
	run := func(batch bool) ([]Datagram, NetworkStats) {
		n := NewNetwork(imp)
		sender, err := n.Attach("s", 512)
		if err != nil {
			t.Fatal(err)
		}
		recv, err := n.Attach("r", 512)
		if err != nil {
			t.Fatal(err)
		}
		const N = 100
		dgs := make([]Datagram, N)
		for i := range dgs {
			dgs[i] = Datagram{Source: "s", Destination: "r", Payload: []byte{byte(i), byte(i >> 8)}}
		}
		if batch {
			if sent, err := SendBatch(sender, dgs); err != nil || sent != N {
				t.Fatalf("SendBatch = %d, %v", sent, err)
			}
		} else {
			for i := range dgs {
				if err := sender.Send(dgs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		n.Flush()
		var out []Datagram
		buf := make([]Datagram, 32)
		for {
			got, err := ReceiveBatch(recv, buf)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, buf[:got]...)
			if len(recv.(*netPort).ch) == 0 {
				break
			}
		}
		return out, n.Stats()
	}
	loopOut, loopStats := run(false)
	batchOut, batchStats := run(true)
	if loopStats != batchStats {
		t.Fatalf("fault-model stats diverged:\nloop  %+v\nbatch %+v", loopStats, batchStats)
	}
	if len(loopOut) != len(batchOut) {
		t.Fatalf("delivered %d via loop, %d via batch", len(loopOut), len(batchOut))
	}
	for i := range loopOut {
		if loopOut[i].Source != batchOut[i].Source || string(loopOut[i].Payload) != string(batchOut[i].Payload) {
			t.Fatalf("delivery %d diverges: %v vs %v", i, loopOut[i], batchOut[i])
		}
	}
}

// TestUDPBatchLearnsPeers pins route learning on the batch receive
// path: a recvmmsg receiver and a portable-fallback receiver fed the
// same frames learn identical principal → UDP origin routes, the latest
// origin wins when a principal re-binds to another socket, and the
// principals behind one origin share one interned route value.
func TestUDPBatchLearnsPeers(t *testing.T) {
	bind := func(name string) *UDPTransport {
		t.Helper()
		u, err := NewUDPTransport(principal.Address(name), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { u.Close() })
		return u
	}
	fast, portable := bind("gw-fast"), bind("gw-portable")
	portable.SetPortableBatch(true)
	recvs := []*UDPTransport{fast, portable}
	s1, s2 := bind("sock-1"), bind("sock-2")
	for _, r := range recvs {
		r.SetLearnPeers(true)
		for _, s := range []*UDPTransport{s1, s2} {
			if err := s.AddPeer(r.local, r.LocalAddr().String()); err != nil {
				t.Fatal(err)
			}
		}
	}
	send := func(s *UDPTransport, srcs ...principal.Address) {
		t.Helper()
		for _, r := range recvs {
			var dgs []Datagram
			for _, src := range srcs {
				dgs = append(dgs, Datagram{Source: src, Destination: r.local, Payload: []byte("hi " + string(src))})
			}
			if n, err := s.SendBatch(dgs); err != nil || n != len(dgs) {
				t.Fatalf("SendBatch: %d, %v", n, err)
			}
		}
	}
	send(s1, "alice", "carol")
	send(s2, "bob")
	for _, r := range recvs {
		collect(t, r, 3)
	}
	send(s2, "alice") // alice re-binds to the second socket
	for _, r := range recvs {
		collect(t, r, 1)
	}

	want := map[principal.Address]string{
		"alice": s2.LocalAddr().String(),
		"bob":   s2.LocalAddr().String(),
		"carol": s1.LocalAddr().String(),
	}
	for _, r := range recvs {
		r.mu.RLock()
		for p, addr := range want {
			if got := r.peers[p]; got == nil || got.String() != addr {
				t.Errorf("%s: route for %s = %v, want %s", r.local, p, got, addr)
			}
		}
		if r.peers["alice"] != r.peers["bob"] {
			t.Errorf("%s: principals behind one origin hold distinct route values", r.local)
		}
		r.mu.RUnlock()
	}
	if mmsgAvailable && fast.usePortable() {
		t.Error("the recvmmsg receiver fell back to the portable path")
	}
}

// TestUDPReceiveBatchSteadyStateAllocs pins the in-place batch receive:
// once a socket's receive slots and address intern table are warm, a
// recvmmsg batch allocates nothing — payloads alias the slots instead
// of being copied out, and the poller callback is bound once.
func TestUDPReceiveBatchSteadyStateAllocs(t *testing.T) {
	if !mmsgAvailable {
		t.Skip("no recvmmsg path on this platform")
	}
	a, b := udpPair(t)
	b.SetLearnPeers(true)
	const runs, per = 50, 4
	payload := "steady state"
	// AllocsPerRun makes runs+1 calls; each returns at least one of the
	// queued datagrams, so none of them blocks.
	for i := 0; i < (runs+1)*per; i++ {
		if err := a.Send(Datagram{Destination: "ub", Payload: []byte(payload)}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]Datagram, per)
	allocs := testing.AllocsPerRun(runs, func() {
		n, err := b.ReceiveBatch(buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, dg := range buf[:n] {
			if dg.Source != "ua" || string(dg.Payload) != payload {
				t.Fatalf("received %q from %q", dg.Payload, dg.Source)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ReceiveBatch allocates %.1f times per call, want 0", allocs)
	}
	if b.usePortable() {
		t.Fatal("the receiver left the recvmmsg path")
	}
}
