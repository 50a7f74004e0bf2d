package gateway

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fbs/internal/core"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// scriptConn is a listener transport whose receive side hands the
// gateway exactly the batches a test scripts, one per ReceiveBatch
// call, and whose send side records every datagram the gateway emits.
type scriptConn struct {
	batches chan []transport.Datagram
	done    chan struct{}
	once    sync.Once

	mu   sync.Mutex
	sent []transport.Datagram
}

func newScriptConn() *scriptConn {
	return &scriptConn{batches: make(chan []transport.Datagram), done: make(chan struct{})}
}

func (c *scriptConn) Send(dg transport.Datagram) error {
	_, err := c.SendBatch([]transport.Datagram{dg})
	return err
}

func (c *scriptConn) SendBatch(dgs []transport.Datagram) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, dg := range dgs {
		c.sent = append(c.sent, dg.Clone())
	}
	return len(dgs), nil
}

func (c *scriptConn) Receive() (transport.Datagram, error) {
	var one [1]transport.Datagram
	if _, err := c.ReceiveBatch(one[:]); err != nil {
		return transport.Datagram{}, err
	}
	return one[0], nil
}

func (c *scriptConn) ReceiveBatch(buf []transport.Datagram) (int, error) {
	select {
	case b := <-c.batches:
		if len(b) > len(buf) {
			panic(fmt.Sprintf("scripted batch of %d exceeds the %d-slot receive", len(b), len(buf)))
		}
		return copy(buf, b), nil
	case <-c.done:
		return 0, transport.ErrClosed
	}
}

func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// feed hands the gateway one batch and returns once the batch is fully
// dispatched: the loop is synchronous, so its next receive (here, an
// empty barrier batch) begins only after the previous batch is done.
func (c *scriptConn) feed(batch []transport.Datagram) {
	c.batches <- batch
	c.batches <- nil
}

// sentTo returns the datagrams the gateway sent, by destination.
func (c *scriptConn) sentTo() map[principal.Address][]transport.Datagram {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[principal.Address][]transport.Datagram)
	for _, dg := range c.sent {
		out[dg.Destination] = append(out[dg.Destination], dg)
	}
	return out
}

// scriptedGateway starts a single-tenant gateway whose listener is a
// scriptConn.
func scriptedGateway(t *testing.T, w *gwWorld, cfg *Config) (*Gateway, *scriptConn) {
	t.Helper()
	conn := newScriptConn()
	opts := w.options()
	opts.Listen = func(TenantConfig) (transport.Transport, error) { return conn, nil }
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Shutdown(2 * time.Second) }) //nolint:errcheck // idempotent safety net
	return g, conn
}

// sealTo seals payload from a client endpoint to the gateway tenant.
func sealTo(t *testing.T, c *core.Endpoint, payload string, secret bool) transport.Datagram {
	t.Helper()
	dg, err := c.Seal(transport.Datagram{Destination: "gw-edge", Payload: []byte(payload)}, secret)
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

// TestGatewayMixedBatchMatchesScalarLedger sends one mixed batch —
// valid datagrams from two clients, an in-batch replay, a malformed
// runt, a forged MAC, a datagram for no tenant and a cookie challenge
// frame — through the batch loop, and the same datagrams one per batch
// (the scalar loop) through an identically configured gateway. Both
// ledgers must agree with each other and with the expected per-reason
// counts, and every valid datagram must be echoed to its sender.
func TestGatewayMixedBatchMatchesScalarLedger(t *testing.T) {
	w := newGWWorld(t)
	cfg := oneTenant()
	cfg.Tenants[0].Prefilter = &PrefilterConfig{Enable: true}
	if _, err := w.identity(cfg.Tenants[0]); err != nil { // enrol the tenant before clients seal to it
		t.Fatal(err)
	}
	alice, bob := w.client("client-1"), w.client("client-2")

	var valid []transport.Datagram
	for i := 0; i < 4; i++ {
		valid = append(valid, sealTo(t, alice, fmt.Sprintf("alice-%d", i), i%2 == 0))
	}
	for i := 0; i < 3; i++ {
		valid = append(valid, sealTo(t, bob, fmt.Sprintf("bob-%d", i), i == 1))
	}
	forged := valid[2].Clone()
	forged.Payload[len(forged.Payload)-1] ^= 0x20
	noTenant := valid[3].Clone()
	noTenant.Destination = "gw-nowhere"
	challenge := make([]byte, core.CookieFrameLen)
	challenge[0], challenge[1], challenge[2] = core.CookieMagic, core.CookieKindChallenge, core.CookieVersion

	batch := []transport.Datagram{
		valid[0], valid[4], valid[1],
		valid[1].Clone(), // in-batch replay
		{Source: "client-1", Destination: "gw-edge", Payload: []byte{0x01, 0x02}}, // malformed
		valid[5], forged, noTenant,
		{Source: "client-2", Destination: "gw-edge", Payload: challenge}, // absorbed
		valid[2], valid[3], valid[6],
	}

	run := func(batchSize int) (Stats, *scriptConn) {
		g, conn := scriptedGateway(t, w, cfg)
		for i := 0; i < len(batch); i += batchSize {
			chunk := make([]transport.Datagram, 0, batchSize)
			for _, dg := range batch[i:min(i+batchSize, len(batch))] {
				chunk = append(chunk, dg.Clone())
			}
			conn.feed(chunk)
		}
		st, err := g.Shutdown(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		checkReconciliation(t, st)
		return st, conn
	}
	batched, bconn := run(len(batch))
	scalar, _ := run(1)

	want := Stats{
		Received: uint64(len(batch)), Accepted: uint64(len(valid)), Delivered: uint64(len(valid)),
		Echoed: uint64(len(valid)), NoTenant: 1, Absorbed: 1,
		Drops: map[string]uint64{
			core.DropReplay.String():    1,
			core.DropMalformed.String(): 1,
			core.DropBadMAC.String():    1,
		},
	}
	for name, st := range map[string]Stats{"batched": batched, "scalar": scalar} {
		got := Stats{Received: st.Received, Accepted: st.Accepted, Delivered: st.Delivered, Echoed: st.Echoed,
			NoTenant: st.NoTenant, Absorbed: st.Absorbed, RetryStarved: st.RetryStarved, Drops: st.Drops}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s ledger:\n got %+v\nwant %+v", name, got, want)
		}
	}

	// Every valid datagram is echoed, to its own sender, and opens to
	// the payload it carried.
	echoes := bconn.sentTo()
	for _, c := range []struct {
		ep   *core.Endpoint
		want string
	}{{alice, "alice-0,alice-1,alice-2,alice-3"}, {bob, "bob-0,bob-1,bob-2"}} {
		var got []string
		for _, dg := range echoes[c.ep.Addr()] {
			opened, err := c.ep.Open(dg)
			if err != nil {
				t.Fatalf("echo to %s does not open: %v", c.ep.Addr(), err)
			}
			got = append(got, string(opened.Payload))
		}
		sort.Strings(got)
		if strings.Join(got, ",") != c.want {
			t.Errorf("echoes to %s = %v, want %s", c.ep.Addr(), got, c.want)
		}
	}
}

// TestGatewaySwapRacingBatchRedispatches lands a config swap (with a
// shard-count change) between a pass loading the epoch and opening
// against it: the retired epoch refuses the whole batch with
// ErrDraining, and every datagram must be re-dispatched against the
// successor, accepted and echoed exactly once, with the ledger
// reconciling across both epochs.
func TestGatewaySwapRacingBatchRedispatches(t *testing.T) {
	w := newGWWorld(t)
	g, conn := scriptedGateway(t, w, oneTenant())
	alice, bob := w.client("client-1"), w.client("client-2")
	var batch []transport.Datagram
	for i := 0; i < 6; i++ {
		batch = append(batch, sealTo(t, alice, fmt.Sprintf("a%d", i), true), sealTo(t, bob, fmt.Sprintf("b%d", i), false))
	}

	next := oneTenant()
	next.Tenants[0].Shards = 3
	swapped := false
	testHookEpochLoaded = func() {
		if !swapped {
			swapped = true
			if _, err := g.Swap(next); err != nil {
				t.Errorf("racing swap: %v", err)
			}
		}
	}
	t.Cleanup(func() { testHookEpochLoaded = nil })

	conn.feed(batch)
	st, err := g.Shutdown(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkReconciliation(t, st)
	n := uint64(len(batch))
	if st.Swaps != 2 || st.Redispatched != n || st.RetryStarved != 0 {
		t.Fatalf("swaps %d redispatched %d retryStarved %d, want 2, %d, 0", st.Swaps, st.Redispatched, st.RetryStarved, n)
	}
	if st.Accepted != n || st.Echoed != n || len(st.Drops) != 0 {
		t.Fatalf("accepted %d echoed %d drops %v, want %d, %d, none", st.Accepted, st.Echoed, st.Drops, n, n)
	}
	for _, ts := range st.Tenants {
		if ts.Shards != 3 || ts.Accepted != n {
			t.Fatalf("successor tenant %+v: want 3 shards holding all %d acceptances", ts, n)
		}
	}
}

// TestGatewayRefusalLogRateLimited floods the gateway with 10,000
// malformed datagrams: the refusal path must log a handful of lines,
// not one per datagram, and the counts the lines carry must add up to
// exactly the refusals the drop ledger holds.
func TestGatewayRefusalLogRateLimited(t *testing.T) {
	w := newGWWorld(t)
	var mu sync.Mutex
	var lines []string
	opts := w.options()
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(oneTenant()); err != nil {
		t.Fatal(err)
	}
	spoofer, err := w.net.Attach("spoofer", 16)
	if err != nil {
		t.Fatal(err)
	}
	const total = 10000
	for sent := 0; sent < total; {
		for end := sent + 1000; sent < end; sent++ {
			if err := spoofer.Send(transport.Datagram{Destination: "gw-edge", Payload: []byte{byte(sent)}}); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for g.Stats().Received < uint64(sent) {
			if time.Now().After(deadline) {
				t.Fatalf("gateway received %d of %d", g.Stats().Received, sent)
			}
			time.Sleep(time.Millisecond)
		}
		if sent == total/2 {
			w.clock.Advance(logInterval) // the next refusal opens a new reporting interval
		}
	}
	st, err := g.Shutdown(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Drops[core.DropMalformed.String()]; got != total {
		t.Fatalf("malformed drops %d, want %d", got, total)
	}

	reason := core.DropMalformed.String()
	more := regexp.MustCompile(`(\d+) more ` + reason + ` since the last report`)
	var logged, sum uint64
	mu.Lock()
	defer mu.Unlock()
	for _, line := range lines {
		if !strings.Contains(line, reason) {
			continue
		}
		logged++
		if strings.Contains(line, "refused datagram") {
			sum++ // the line's own example
		}
		if m := more.FindStringSubmatch(line); m != nil {
			n, _ := strconv.ParseUint(m[1], 10, 64)
			sum += n
		}
	}
	if logged < 2 || logged > 4 {
		t.Fatalf("%d %s log lines for %d refusals, want 2-4:\n%s", logged, reason, total, strings.Join(lines, "\n"))
	}
	if sum != total {
		t.Fatalf("log lines account for %d refusals, want exactly %d:\n%s", sum, total, strings.Join(lines, "\n"))
	}
}
