package main

import (
	"fmt"
	"path/filepath"

	"fbs/internal/core"
)

// perLayer assembles the traced run's per-layer metrics: client-path
// spans from the traced half, the isolated layer probes, the gateway's
// counters scraped and printed from outside, and the tracing overhead
// (traced half against untraced half).
func perLayer(rc runCfg, t *totals, e2e endToEnd) ([]metric, error) {
	w, final, st := rc.w, t.final, t.st
	var out []metric
	add := func(name, unit string, v float64, note string) {
		out = append(out, metric{name: name, unit: unit, value: v, note: note})
	}

	// Client path: medians of the traced half's spans.
	durs, dropped := spanDurations(t.logs)
	if len(durs[spanWait]) == 0 {
		return nil, fmt.Errorf("traced window recorded no round trips")
	}
	spanNote := func(k spanKind) string {
		return fmt.Sprintf("median of %d spans (%d over the memory cap)", len(durs[k]), dropped)
	}
	add("client.seal_ns", "ns", median(durs[spanSeal]), spanNote(spanSeal))
	add("client.send_ns", "ns", median(durs[spanSend]), spanNote(spanSend)+", send call / datagrams in it")
	add("client.recv_ns", "ns", median(durs[spanRecv]), spanNote(spanRecv)+", receive call (incl. blocking) / datagrams in it")
	add("client.open_ns", "ns", median(durs[spanOpen]), spanNote(spanOpen))
	add("client.wait_us", "us", median(durs[spanWait])/1e3, spanNote(spanWait)+", send return to echo arrival")
	add("client.gen_late_p99_us", "us", e2e.lateP99, "open loop only: send time minus scheduled time")
	spanPath := filepath.Join(rc.out, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, rc.seed))
	if err := writeSpans(spanPath, t.logs, 200_000); err != nil {
		return nil, err
	}

	// Tracing overhead: the traced halves against the untraced halves.
	a, b := t.win[winMain], t.win[winTraced]
	rateA, rateB := ratio(float64(a.verified), a.secs), ratio(float64(b.verified), b.secs)
	cpuA := ratio(float64(a.cliCPU.Microseconds()), float64(a.verified))
	cpuB := ratio(float64(b.cliCPU.Microseconds()), float64(b.verified))
	add("trace.overhead_echo_per_s_pct", "%", ratio(rateA-rateB, rateA)*100,
		fmt.Sprintf("untraced %.0f/s, traced %.0f/s", rateA, rateB))
	add("trace.overhead_client_cpu_us_per_echo", "us", cpuB-cpuA,
		fmt.Sprintf("untraced %.2f, traced %.2f", cpuA, cpuB))

	// End-to-end figures that can be zero or spread too widely across
	// runs to gate, so they are reported here rather than bounded.
	add("e2e.rtt_p90_us", "us", medianOver(t.boots, func(b endToEnd) float64 { return b.rttP90 }),
		fmt.Sprintf("median of %d boots; pooled %.1f", len(t.boots), e2e.rttP90))
	add("e2e.rtt_p99_us", "us", medianOver(t.boots, func(b endToEnd) float64 { return b.rttP99 }),
		fmt.Sprintf("median of %d boots; pooled %.1f", len(t.boots), e2e.rttP99))
	add("e2e.fail_ratio", "ratio", e2e.failRatio, "round trips not verified within 1s / attempted")
	add("e2e.retransmit_ratio", "ratio", e2e.retransmitRatio, "round trips verified only after a retransmission / attempted")
	add("e2e.reflect_ratio", "ratio", e2e.reflectRatio, "bytes to the spoofed socket / spoofed bytes sent")

	// Isolated probes.
	cp, err := probeCrypto(w, rc.seed)
	if err != nil {
		return nil, fmt.Errorf("crypto probe: %w", err)
	}
	co, err := probeCore(w, rc.seed)
	if err != nil {
		return nil, fmt.Errorf("core probe: %w", err)
	}
	tp, err := probeTransport(w, co.wireLen, 1)
	if err != nil {
		return nil, fmt.Errorf("transport probe: %w", err)
	}
	shape := fmt.Sprintf("%s %dB secret=%v/%v", w.suite, w.payload, w.secret, w.secretEcho)
	add("cryptolib.seal_ns", "ns", cp.sealNs, shape+", echo direction")
	add("cryptolib.open_ns", "ns", cp.openNs, shape+", request direction")
	add("core.seal_ns", "ns", co.sealNs, "SealAppend, batch of 1")
	add("core.open_ns", "ns", co.openNs, "OpenAppend, batch of 1")
	add("core.framework_ns", "ns", frameworkNs(co.sealNs, co.openNs, cp.sealNs, cp.openNs), "core seal+open minus cryptolib seal+open")
	add("core.batch_seal_ns", "ns", co.batchSealNs, "SealBatch b=32, per datagram")
	add("core.batch_open_ns", "ns", co.batchOpenNs, "OpenBatch b=32, per datagram")
	add("core.allocs_per_dgram", "allocs", co.allocsPerDgram, "Open + Seal per echoed datagram")
	add("transport.send_ns", "ns", tp.sendNs, "UDPTransport.Send")
	add("transport.recv_ns", "ns", tp.recvNs, "UDPTransport.Receive, datagram queued")
	add("transport.batch_send_ns", "ns", tp.batchSendNs, "SendBatch b=32, per datagram")
	add("transport.batch_recv_ns", "ns", tp.batchRecvNs, "ReceiveBatch b=32, per datagram")
	add("transport.allocs_per_dgram", "allocs", tp.allocsPerDgram, "Receive + Send per echoed datagram")
	add("transport.alloc_bytes_per_dgram", "B", tp.allocBytesPerDgram, "Receive + Send per echoed datagram")
	add("transport.raw_echo_per_s", "1/s", tp.rawEchoPerS, "bare UDP echo, same sockets and window")
	add("transport.rcvbuf_errors", "count", float64(a.rcvbuf+b.rcvbuf), "/proc/net/snmp Udp RcvbufErrors delta over the windows")

	// Keying and caches, from the final /metrics scrape.
	add("core.master_key_computes", "count", final.sum("fbs_keyservice_master_key_computes_total"), "whole run")
	add("core.mk_thrash_boots", "count", float64(thrashBoots(w, t.boots)), fmt.Sprintf("boots (of %d) computing > 4 master keys per flow", len(t.boots)))
	add("core.cert_verifies", "count", final.sum("fbs_keyservice_cert_verifies_total"), "whole run")
	add("core.rfkc_hit_ratio", "ratio", final.hitRatio("rfkc"), "hits / lookups")
	add("core.tfkc_hit_ratio", "ratio", final.hitRatio("tfkc"), "hits / lookups")
	famLookups := final.sum("fbs_fam_lookups_total")
	add("core.fam_hit_ratio", "ratio", ratio(final.sum("fbs_fam_hits_total"), famLookups), fmt.Sprintf("base=%.0f lookups", famLookups))

	// Prefilter and admission. Every refused datagram is a spoofed one
	// (the correctness gate holds the legitimate flows to zero refusals
	// outside flood), so refusals are the base.
	refused := float64(st.Received) - float64(st.Accepted)
	parses := final.sum("fbs_prefilter_header_parses_total")
	spoofParses := parses - float64(st.Accepted)
	if parses == 0 {
		spoofParses = 0
	}
	base := fmt.Sprintf("base=%.0f refused datagrams (%d spoofed sent)", refused, t.spoofSent)
	add("prefilter.header_parse_ratio", "ratio", ratio(spoofParses, refused), base)
	add("prefilter.shed_ratio", "ratio", ratio(final.sum("fbs_prefilter_sketch_sheds_total"), refused), base)
	add("prefilter.challenges", "count", final.sum("fbs_prefilter_challenges_total"), "whole run")
	add("prefilter.challenges_suppressed", "count", final.sum("fbs_prefilter_challenges_suppressed_total"), "whole run")
	add("prefilter.escalations", "count", final.sum("fbs_prefilter_escalations_total"), "ladder steps up, whole run")
	add("prefilter.deescalations", "count", final.sum("fbs_prefilter_deescalations_total"), "ladder steps down, whole run")
	add("admission.shed", "count", final.sum("fbs_admission_shed_total"), "whole run")

	// Gateway: what the probes do not explain, and its own ledger.
	add("gateway.dispatch_ns", "ns", dispatchNs(e2e.gwCPUusPerDg, tp.recvNs, tp.sendNs, co.openNs, co.sealNs),
		"gw_cpu_us_per_dgram - (transport recv+send + core open+seal)")
	recvd := float64(st.Received)
	rbase := fmt.Sprintf("base=%d received", st.Received)
	add("gateway.log_lines_per_dgram", "lines", ratio(float64(t.stderr), recvd), rbase)
	for _, d := range core.DropReasons() {
		add("gateway.drops."+d.String()+"_per_dgram", "ratio", ratio(float64(st.Drops[d.String()]), recvd), rbase)
	}
	add("gateway.echo_failures", "count", float64(st.EchoFailures), "final stats")
	add("gateway.unaccounted", "count", float64(st.unaccounted()), "final stats; must be 0")
	return out, nil
}
