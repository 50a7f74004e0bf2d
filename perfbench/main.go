// Command perfbench is the repository's end-to-end benchmark: it runs
// the real fbsgw daemon as a child process on loopback UDP, drives it
// through FBS client endpoints rebuilt from the daemon's provisioning
// state, verifies every echo, and measures the gateway only from
// outside (/proc, /metrics, its stderr, its final stats, the kernel's
// UDP counters). See README.md for the workloads and metrics.
//
// Usage (normally through run.py, which builds fbsgw first):
//
//	perfbench -fbsgw <binary> -workload echo-small -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runCfg is one invocation.
type runCfg struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	bin     string
	out     string
	gwCPU   int
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // sample count or ratio base, for the human table
}

// report is a run's outcome: the gate, the attempt counts and the
// numbers. json holds the metrics for the final JSON line; info and
// lines are printed only in the human table.
type report struct {
	correct   bool
	problems  []string
	attempted uint64
	failed    uint64
	json      []metric
	info      []metric
	lines     []string
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	workloadName := flag.String("workload", "echo-small", "workload: echo-small, echo-bulk or flood")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	bin := flag.String("fbsgw", "", "fbsgw binary to run")
	out := flag.String("out", ".", "directory for gateway files and span dumps")
	gwCPU := flag.Int("gateway-cpu", -1, "pin fbsgw to this CPU with taskset (-1: no pinning)")
	flag.Parse()

	w, err := workloadByName(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *bin == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -fbsgw and a positive -seconds are required")
		os.Exit(2)
	}
	rc := runCfg{w: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, bin: *bin, out: *out, gwCPU: *gwCPU}
	rep, err := bench(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printTable(os.Stderr, rc, rep)
	if !rep.correct {
		// A run that fails the gate reports the failure, not numbers.
		line, _ := json.Marshal(map[string]any{"correct": false, "attempted": max(rep.attempted, 1),
			"failed": rep.failed, "metrics": map[string]any{}})
		fmt.Println(string(line))
		os.Exit(1)
	}
	ms := make(map[string]any, len(rep.json))
	for _, m := range rep.json {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{"correct": true, "attempted": rep.attempted,
		"failed": rep.failed, "metrics": ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func printTable(f *os.File, rc runCfg, rep *report) {
	mode := "untraced"
	if rc.trace {
		mode = "traced"
	}
	fmt.Fprintf(f, "perfbench %s seed=%d seconds=%g (%s): attempted=%d failed=%d correct=%v\n",
		rc.w.name, rc.seed, rc.seconds, mode, rep.attempted, rep.failed, rep.correct)
	for _, p := range rep.problems {
		fmt.Fprintln(f, "  GATE:", p)
	}
	for _, m := range append(append([]metric(nil), rep.json...), rep.info...) {
		fmt.Fprintf(f, "  %-44s %14.4f %-12s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, l := range rep.lines {
		fmt.Fprintln(f, "  "+l)
	}
}

// deadline bounds a round trip, retransmissions included.
const deadline = time.Second

// live is one booted gateway with its fleet and engine.
type live struct {
	gw *gwProc
	e  *engine
}

// bringUp starts fbsgw and brings every flow to one verified echo. The
// returned duration runs from the exec to the last flow's first echo:
// CA and identity minting, listener bind, and first-contact keying.
func bringUp(rc runCfg, n int) (*live, time.Duration, error) {
	dir := filepath.Join(rc.out, fmt.Sprintf("gw-%d-%d", os.Getpid(), n))
	gw, err := startGateway(rc.bin, dir, rc.gwCPU, rc.w.gatewayConfig(), flowNames(rc.w.flows))
	if err != nil {
		return nil, 0, err
	}
	if err := gw.waitReady(60 * time.Second); err != nil {
		gw.kill()
		return nil, 0, err
	}
	f, err := newFleet(rc.w, gw.state)
	if err != nil {
		gw.kill()
		return nil, 0, err
	}
	e := newEngine(f, newPayloadGen(rc.seed, rc.w.payload))
	if err := e.setup(60 * time.Second); err != nil {
		e.stop()
		gw.kill()
		return nil, 0, err
	}
	return &live{gw: gw, e: e}, time.Since(gw.started), nil
}

// tearDown drains the gateway, stops the engine and checks the
// gateway's final stats.
func (s *live) tearDown(rc runCfg, rep *report) (gwStats, error) {
	st, err := s.gw.stop(20 * time.Second)
	s.e.stop()
	if err != nil {
		return st, err
	}
	os.RemoveAll(s.gw.dir) //nolint:errcheck // the boot's own config, state and log files
	if u := st.unaccounted(); u != 0 {
		rep.fail("gateway.unaccounted = %d (received %d)", u, st.Received)
	}
	if !rc.w.flood && (st.EchoFailures != 0 || st.RetryStarved != 0) {
		rep.fail("echo_failures %d, retry_starved %d in %s", st.EchoFailures, st.RetryStarved, rc.w.name)
	}
	return st, nil
}
