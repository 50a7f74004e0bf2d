package main

import (
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// A run boots the gateway several times and measures an equal slice of
// the run's seconds on each boot; the end-to-end figures are medians
// over boots. Which client flows conflict in the gateway's
// direct-mapped flow-key caches is a random draw per boot (every flow
// draws a random SFL). In about one echo-small boot in six, two
// conflicting flows' principals also share a master-key cache slot, and
// the gateway then recomputes a Diffie-Hellman master key per datagram
// for them: that boot's echo rate drops by two thirds. One boot per run
// would make every figure bimodal across runs; the median over boots is
// the typical boot, and the thrash itself is reported per layer
// (core.master_key_computes, gateway.thrash_boots) and per boot in the
// table.

// snap is the outside view of the gateway and the load generator at a
// window edge.
type snap struct {
	t       time.Time
	gwTicks uint64
	gwRecv  float64
	cliCPU  time.Duration
	rcvbuf  uint64
}

const clockTick = 10 * time.Millisecond // USER_HZ on Linux

func takeSnap(s *live) (snap, error) {
	var out snap
	var err error
	if out.gwTicks, err = s.gw.cpuTicks(); err != nil {
		return out, err
	}
	m, err := s.gw.scrape()
	if err != nil {
		return out, err
	}
	out.gwRecv = m.sum("fbs_gateway_received_total")
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return out, err
	}
	out.cliCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return out, err
	}
	if out.rcvbuf, err = snmpCounter(string(b), "Udp", "RcvbufErrors"); err != nil {
		return out, err
	}
	out.t = time.Now()
	return out, nil
}

// winTotals is one measured window summed over boots.
type winTotals struct {
	winResult
	secs   float64
	gwCPU  time.Duration
	gwRecv float64
	cliCPU time.Duration
	rcvbuf uint64
}

// add accounts one window, its round trips r between edges a and b.
func (t *winTotals) add(r winResult, a, b snap) {
	t.merge(winTotals{
		winResult: r,
		secs:      b.t.Sub(a.t).Seconds(),
		gwCPU:     time.Duration(b.gwTicks-a.gwTicks) * clockTick,
		gwRecv:    b.gwRecv - a.gwRecv,
		cliCPU:    b.cliCPU - a.cliCPU,
		rcvbuf:    b.rcvbuf - a.rcvbuf,
	})
}

func (t *winTotals) merge(o winTotals) {
	t.attempted += o.attempted
	t.verified += o.verified
	t.failed += o.failed
	t.retried += o.retried
	t.rttUS = append(t.rttUS, o.rttUS...)
	t.lateUS = append(t.lateUS, o.lateUS...)
	t.secs += o.secs
	t.gwCPU += o.gwCPU
	t.gwRecv += o.gwRecv
	t.cliCPU += o.cliCPU
	t.rcvbuf += o.rcvbuf
}

// totals is everything a run's boots add up to.
type totals struct {
	win        [numWins]winTotals
	final      promSet // every boot's final scrape, concatenated (sums stay sums)
	st         gwStats // final stats summed over boots
	stderr     uint64
	spoofSent  uint64
	spoofBytes uint64
	reflBytes  uint64
	challenged uint64
	late       uint64
	logs       []*spanLog
	boots      []endToEnd // each boot's own figures
	perBoot    []string   // one line per boot, for the human table
}

// bootsFor is how many boots a run of w makes.
func bootsFor(w workload) int {
	if w.flood {
		return 5
	}
	return 10
}

// bench runs one workload invocation end to end.
func bench(rc runCfg) (*report, error) {
	rep := &report{correct: true}
	if err := os.MkdirAll(rc.out, 0o755); err != nil {
		return nil, err
	}
	boots := bootsFor(rc.w)
	var t totals
	for i := 0; i < boots; i++ {
		if err := boot(rc, i, time.Duration(rc.seconds*float64(time.Second)/float64(boots)), &t, rep); err != nil {
			return nil, fmt.Errorf("boot %d: %w", i+1, err)
		}
	}
	return summarize(rc, &t, rep)
}

// boot brings one gateway up, warms it, measures its window (traced
// runs: an untraced half, then a traced half), and drains it.
func boot(rc runCfg, n int, window time.Duration, t *totals, rep *report) error {
	w := rc.w
	s, setup, err := bringUp(rc, n)
	if err != nil {
		return err
	}
	ok := false
	defer func() {
		if !ok {
			s.e.stop()
			s.gw.kill()
		}
	}()
	e := s.e
	// Warm: the closed loop runs before anything is measured so caches
	// fill and lazy set-up finishes.
	e.startClosed()
	time.Sleep(warmFor(w))
	var sp *spoofer
	if w.flood {
		e.stopClosed()
		e.drain()
		if sp, err = newSpoofer(w, rc.seed+int64(n), s.gw.state.TenantUDP[tenantAddr], replayPool(e, 256)); err != nil {
			return err
		}
		defer sp.close()
	}

	halves := []int{winMain}
	if rc.trace {
		halves = []int{winMain, winTraced}
	}
	part := window / time.Duration(len(halves))
	spoofDone := make(chan struct{})
	if sp != nil {
		// The flood runs for floodWarm before the window opens, so the
		// window sees the prefilter ladder settled, not its escalation.
		go func() {
			defer close(spoofDone)
			sp.run(w.spoofRate, floodWarm+window)
		}()
		e.runOpen(w.legitRate, floodWarm)
	} else {
		close(spoofDone)
	}
	edges := make([]snap, 0, 3)
	s0, err := takeSnap(s)
	if err != nil {
		return err
	}
	edges = append(edges, s0)
	for _, win := range halves {
		e.win.Store(uint32(win))
		e.tracing.Store(win == winTraced)
		if w.flood {
			e.runOpen(w.legitRate, part)
		} else {
			time.Sleep(part)
		}
		s1, err := takeSnap(s)
		if err != nil {
			return err
		}
		edges = append(edges, s1)
	}
	e.win.Store(winNone)
	e.tracing.Store(false)
	e.stopClosed()
	<-spoofDone
	e.drain()

	peakKB, err := s.gw.peakRSSKB()
	if err != nil {
		return err
	}
	final, err := s.gw.scrape()
	if err != nil {
		return err
	}
	stderrLines := s.gw.stderr.count()
	st, err := s.tearDown(rc, rep)
	ok = true
	if err != nil {
		return err
	}
	if a, b, c, d := e.badRoute.Load(), e.badOpen.Load(), e.badBytes.Load(), e.badSeq.Load(); a+b+c+d != 0 {
		rep.fail("echoes failed verification: %d misrouted, %d refused by the client, %d with wrong bytes, %d with an unknown sequence number", a, b, c, d)
	}
	if n := e.sendErrs.Load(); n != 0 {
		rep.fail("%d requests failed to seal or send", n)
	}

	var mine winTotals
	for i, win := range halves {
		t.win[win].add(e.result(win), edges[i], edges[i+1])
		mine.add(e.result(win), edges[i], edges[i+1])
	}
	f := figures(mine)
	f.rssMB = float64(peakKB) / 1024
	f.setupS = setup.Seconds()
	f.masterKeys = final.sum("fbs_keyservice_master_key_computes_total")
	t.boots = append(t.boots, f)
	t.final = append(t.final, final...)
	t.st.merge(st)
	t.stderr += stderrLines
	t.challenged += e.challenged.Load()
	t.late += e.late.Load()
	t.logs = append(t.logs, e.logs...)
	if sp != nil {
		t.spoofSent += sp.sent.Load()
		t.spoofBytes += sp.sentBytes.Load()
		t.reflBytes += sp.reflectedBytes.Load()
	}
	t.perBoot = append(t.perBoot, fmt.Sprintf("boot %d: setup %.3fs, %.0f echo/s, rtt p50/p90/p99 %.0f/%.0f/%.0f us, %.1f us gateway CPU/dgram, %.0f master keys computed, %.4f retransmitted",
		n+1, f.setupS, f.echoPerS, f.rttP50, f.rttP90, f.rttP99, f.gwCPUusPerDg, f.masterKeys, f.retransmitRatio))
	return nil
}

// floodWarm is how long the flood runs before its window opens.
const floodWarm = 2 * time.Second

// warmFor is how long the closed loop runs on a boot before measuring.
func warmFor(w workload) time.Duration {
	if w.flood {
		return time.Second
	}
	return 300 * time.Millisecond
}

// endToEnd holds the end-to-end figures of one boot or a whole run.
type endToEnd struct {
	echoPerS, rttP50, rttP90       float64
	rttP99                         float64
	gwCPUusPerDg, cliCPUusPerEch   float64
	rssMB, failRatio, reflectRatio float64
	retransmitRatio, setupS        float64
	lateP99, masterKeys            float64
}

// figures computes the window-derived figures of w (sorting its samples).
func figures(w winTotals) endToEnd {
	sort.Float64s(w.rttUS)
	sort.Float64s(w.lateUS)
	return endToEnd{
		echoPerS:        ratio(float64(w.verified), w.secs),
		rttP50:          percentile(w.rttUS, 0.50),
		rttP90:          percentile(w.rttUS, 0.90),
		rttP99:          percentile(w.rttUS, 0.99),
		gwCPUusPerDg:    ratio(float64(w.gwCPU.Microseconds()), w.gwRecv),
		cliCPUusPerEch:  ratio(float64(w.cliCPU.Microseconds()), float64(w.verified)),
		failRatio:       ratio(float64(w.failed), float64(w.attempted)),
		retransmitRatio: ratio(float64(w.retried), float64(w.attempted)),
		lateP99:         percentile(w.lateUS, 0.99),
	}
}

// thrashBoots counts the boots whose gateway kept recomputing master
// keys: a warm boot computes about one per flow and shard.
func thrashBoots(w workload, boots []endToEnd) int {
	n := 0
	for _, b := range boots {
		if b.masterKeys > float64(4*w.flows) {
			n++
		}
	}
	return n
}

// medianOver is the median across boots of one figure.
func medianOver(boots []endToEnd, f func(endToEnd) float64) float64 {
	xs := make([]float64, len(boots))
	for i, b := range boots {
		xs[i] = f(b)
	}
	return median(xs)
}

// summarize turns a run's totals into the report.
func summarize(rc runCfg, t *totals, rep *report) (*report, error) {
	wins := []int{winMain}
	if rc.trace {
		wins = []int{winMain, winTraced}
	}
	var all winTotals
	for _, w := range wins {
		all.merge(t.win[w])
	}
	// Pooled over boots: ratios of sums, percentiles of all samples.
	e2e := figures(all)
	e2e.reflectRatio = ratio(float64(t.reflBytes), float64(t.spoofBytes))
	rep.attempted, rep.failed = all.attempted, all.failed
	if all.attempted == 0 {
		rep.fail("no round trips attempted")
		return rep, nil
	}
	if all.verified+all.failed != all.attempted {
		rep.fail("round trips do not reconcile: %d verified + %d failed != %d attempted",
			all.verified, all.failed, all.attempted)
	}
	samples := fmt.Sprintf("n=%d", len(all.rttUS))
	rep.info = append(rep.info,
		metric{"rtt_p90_us", "us", medianOver(t.boots, func(b endToEnd) float64 { return b.rttP90 }),
			fmt.Sprintf("median of %d boots; pooled %.1f over %s", len(t.boots), e2e.rttP90, samples)},
		metric{"rtt_p99_us", "us", medianOver(t.boots, func(b endToEnd) float64 { return b.rttP99 }),
			fmt.Sprintf("median of %d boots; pooled %.1f over %s", len(t.boots), e2e.rttP99, samples)},
		metric{"fail_ratio", "ratio", e2e.failRatio, fmt.Sprintf("base=%d attempted; not verified within %v", all.attempted, deadline)},
		metric{"retransmit_ratio", "ratio", e2e.retransmitRatio, fmt.Sprintf("base=%d attempted; verified only after a %v retransmission", all.attempted, rto)},
		metric{"reflect_ratio", "ratio", e2e.reflectRatio, fmt.Sprintf("base=%d spoofed bytes (%d datagrams)", t.spoofBytes, t.spoofSent)},
		metric{"gen_late_p99_us", "us", e2e.lateP99, fmt.Sprintf("n=%d", len(all.lateUS))},
		metric{"gw_received_per_s", "1/s", ratio(all.gwRecv, all.secs), fmt.Sprintf("base=%.0f datagrams", all.gwRecv)},
		metric{"client_challenges", "count", float64(t.challenged), "cookie challenges sent to legitimate clients"},
		metric{"straggler_echoes", "count", float64(t.late), "echoes of round trips already expired or answered"},
		metric{"thrash_boots", "count", float64(thrashBoots(rc.w, t.boots)),
			fmt.Sprintf("of %d boots: master keys computed > %d (4 per flow)", len(t.boots), 4*rc.w.flows)},
	)
	rep.lines = t.perBoot
	if !rc.trace {
		med := func(f func(endToEnd) float64) float64 { return medianOver(t.boots, f) }
		nb := len(t.boots)
		rep.json = []metric{
			{"echo_per_s", "1/s", med(func(b endToEnd) float64 { return b.echoPerS }),
				fmt.Sprintf("median of %d boots; pooled %d verified in %.2fs = %.0f/s", nb, all.verified, all.secs, e2e.echoPerS)},
			{"rtt_p50_us", "us", med(func(b endToEnd) float64 { return b.rttP50 }),
				fmt.Sprintf("median of %d boots; pooled %.1f over %s", nb, e2e.rttP50, samples)},
			{"gw_cpu_us_per_dgram", "us", med(func(b endToEnd) float64 { return b.gwCPUusPerDg }),
				fmt.Sprintf("median of %d boots; pooled %.2f over %.0f received", nb, e2e.gwCPUusPerDg, all.gwRecv)},
			{"client_cpu_us_per_echo", "us", med(func(b endToEnd) float64 { return b.cliCPUusPerEch }),
				fmt.Sprintf("median of %d boots; pooled %.2f over %d verified", nb, e2e.cliCPUusPerEch, all.verified)},
			{"gw_rss_mb", "MB", med(func(b endToEnd) float64 { return b.rssMB }), fmt.Sprintf("median VmHWM of %d boots", nb)},
			{"setup_s", "s", med(func(b endToEnd) float64 { return b.setupS }), fmt.Sprintf("median of %d boots", nb)},
		}
		return rep, nil
	}
	layers, err := perLayer(rc, t, e2e)
	if err != nil {
		return nil, err
	}
	rep.json = layers
	return rep, nil
}

// merge adds another boot's final stats.
func (s *gwStats) merge(o gwStats) {
	s.Received += o.Received
	s.Accepted += o.Accepted
	s.Delivered += o.Delivered
	s.Echoed += o.Echoed
	s.EchoFailures += o.EchoFailures
	s.NoTenant += o.NoTenant
	s.Absorbed += o.Absorbed
	s.RetryStarved += o.RetryStarved
	if s.Drops == nil {
		s.Drops = make(map[string]uint64)
	}
	for k, v := range o.Drops {
		s.Drops[k] += v
	}
}
