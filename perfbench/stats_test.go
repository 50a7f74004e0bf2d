package main

import (
	"math"
	"math/rand"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {0.25, 20}, {0.99, 49.6}, {1, 50}, {0.1, 14},
	} {
		if got := percentile(s, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{3, 1, 2, 10}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
	if ratio(1, 0) != 0 || !near(ratio(1, 4), 0.25) {
		t.Error("ratio")
	}
}

func TestProcCPUTicks(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "4242 (fbs gw (x)) S 1 4242 4242 0 -1 4194560 1205 0 0 0 731 96 0 0 20 0 8 0 123 0 0"
	got, err := procCPUTicks(stat)
	if err != nil || got != 731+96 {
		t.Fatalf("procCPUTicks = %d, %v; want 827", got, err)
	}
	if _, err := procCPUTicks("4242 (truncated"); err == nil {
		t.Fatal("want an error for a stat line without fields")
	}
}

func TestProcStatusAndSNMP(t *testing.T) {
	status := "Name:\tfbsgw\nVmPeak:\t  812340 kB\nVmHWM:\t   30212 kB\nVmRSS:\t   29000 kB\n"
	if got, err := procStatusKB(status, "VmHWM"); err != nil || got != 30212 {
		t.Fatalf("VmHWM = %d, %v", got, err)
	}
	if _, err := procStatusKB(status, "VmSwap"); err == nil {
		t.Fatal("want an error for a missing key")
	}
	snmp := "Tcp: RtoAlgorithm RtoMin\nTcp: 1 200\n" +
		"Udp: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors\n" +
		"Udp: 100 2 7 90 5 0\n" +
		"UdpLite: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors\n" +
		"UdpLite: 0 0 0 0 99 0\n"
	if got, err := snmpCounter(snmp, "Udp", "RcvbufErrors"); err != nil || got != 5 {
		t.Fatalf("Udp RcvbufErrors = %d, %v; want 5", got, err)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP fbs_cache_hits_total Soft-cache hits, by cache.
# TYPE fbs_cache_hits_total counter
fbs_cache_hits_total{tenant="edge",shard="0",cache="rfkc"} 90
fbs_cache_hits_total{tenant="edge",shard="1",cache="rfkc"} 10
fbs_cache_misses_total{tenant="edge",shard="0",cache="rfkc"} 25
fbs_cache_hits_total{tenant="e\"dge",shard="0",cache="tfkc"} 7
fbs_gateway_received_total 1234
`
	p, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("fbs_cache_hits_total", "cache", "rfkc"); got != 100 {
		t.Errorf("rfkc hits = %v, want 100", got)
	}
	if got := p.hitRatio("rfkc"); !near(got, 0.8) {
		t.Errorf("rfkc hit ratio = %v, want 0.8", got)
	}
	if got := p.sum("fbs_cache_hits_total", "tenant", `e"dge`); got != 7 {
		t.Errorf("escaped label: %v", got)
	}
	if got := p.sum("fbs_gateway_received_total"); got != 1234 {
		t.Errorf("unlabelled sample = %v", got)
	}
	// Concatenated scrapes of several boots keep sums as sums.
	both := append(append(promSet(nil), p...), p...)
	if got := both.sum("fbs_gateway_received_total"); got != 2468 {
		t.Errorf("two boots = %v", got)
	}
	if _, err := parseProm(`broken{a="1" 3`); err == nil {
		t.Error("want an error for unterminated labels")
	}
}

func TestDerivedLayers(t *testing.T) {
	// core seal+open 900 ns, of which the suite is 300: 600 ns framework.
	if got := frameworkNs(500, 400, 160, 140); !near(got, 600) {
		t.Errorf("framework = %v", got)
	}
	// 20 us of gateway CPU per datagram, 12.5 us explained by probes.
	if got := dispatchNs(20, 2500, 4000, 1500, 4500); !near(got, 7500) {
		t.Errorf("dispatch = %v", got)
	}
	st := gwStats{Received: 100, Accepted: 90, NoTenant: 1, Absorbed: 2, RetryStarved: 0,
		Drops: map[string]uint64{"keying": 4, "malformed": 3}}
	if u := st.unaccounted(); u != 0 {
		t.Errorf("unaccounted = %d", u)
	}
	st.Received++
	if u := st.unaccounted(); u != 1 {
		t.Errorf("unaccounted = %d, want 1", u)
	}
	var sum gwStats
	sum.merge(st)
	sum.merge(st)
	if sum.Received != 202 || sum.Drops["keying"] != 8 || sum.unaccounted() != 2 {
		t.Errorf("merge = %+v", sum)
	}
}

func TestPayloadCheck(t *testing.T) {
	g := newPayloadGen(7, 64)
	p := g.fill(nil, 12345, 17, 2)
	seq, flow, tx, ok := g.check(p)
	if !ok || seq != 12345 || flow != 17 || tx != 2 {
		t.Fatalf("check = %d %d %d %v", seq, flow, tx, ok)
	}
	p[40] ^= 1
	if _, _, _, ok := g.check(p); ok {
		t.Fatal("a flipped byte must fail verification")
	}
	if _, _, _, ok := g.check(p[:63]); ok {
		t.Fatal("a short echo must fail verification")
	}
	if a, b := newPayloadGen(7, 64).fill(nil, 1, 0, 0), newPayloadGen(8, 64).fill(nil, 1, 0, 0); string(a) == string(b) {
		t.Fatal("the seed must drive the payload bytes")
	}
}

func TestSpoofAddrs(t *testing.T) {
	a := spoofAddrs(rand.New(rand.NewSource(3)), 256, 100_000)
	b := spoofAddrs(rand.New(rand.NewSource(3)), 256, 100_000)
	if len(a) != 100_000 || a[99_999] != b[99_999] {
		t.Fatal("spoofed sources must be a function of the seed")
	}
	prefixes := map[string]bool{}
	for _, s := range a {
		p := string(s)[:8]
		if p[:5] == "legit" {
			t.Fatalf("spoofed prefix %q overlaps the clients'", p)
		}
		prefixes[p] = true
	}
	if len(prefixes) != 256 {
		t.Fatalf("%d prefixes, want 256", len(prefixes))
	}
}
