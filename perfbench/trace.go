package main

import (
	"bufio"
	"fmt"
	"os"
)

// Client-path tracing. In the traced window every round trip's spans
// share its sequence number as their trace id: the seal and send calls
// into core and transport, the receive and open calls on the echo, and
// the wait between the send returning and the echo arriving (gateway,
// kernel and queueing). Spans stay in per-goroutine memory and are
// written out once the run ends.

type spanKind uint8

const (
	spanSeal spanKind = iota
	spanSend
	spanRecv
	spanOpen
	spanWait
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"seal", "send", "recv", "open", "wait"}

type span struct {
	id    uint64
	start int64 // ns since the engine's base
	dur   int64
	kind  spanKind
}

// spanCap bounds one goroutine's span memory (~16 MiB).
const spanCap = 1 << 19

// spanLog is one goroutine's spans; it is never shared while written.
type spanLog struct {
	spans   []span
	dropped uint64
}

func (s *spanLog) add(id uint64, k spanKind, start, dur int64) {
	if len(s.spans) >= spanCap {
		s.dropped++
		return
	}
	s.spans = append(s.spans, span{id: id, start: start, dur: dur, kind: k})
}

// spanDurations gathers every recorded duration (ns) per span kind.
func spanDurations(logs []*spanLog) (out [numSpanKinds][]float64, dropped uint64) {
	for _, l := range logs {
		for _, s := range l.spans {
			out[s.kind] = append(out[s.kind], float64(s.dur))
		}
		dropped += l.dropped
	}
	return out, dropped
}

// writeSpans dumps the spans as tab-separated id, kind, start_ns,
// dur_ns lines, at most limit of them.
func writeSpans(path string, logs []*spanLog, limit int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace_id\tspan\tstart_ns\tdur_ns")
	n := 0
	for _, l := range logs {
		for _, s := range l.spans {
			if n == limit {
				break
			}
			fmt.Fprintf(w, "%d\tclient.%s\t%d\t%d\n", s.id, spanNames[s.kind], s.start, s.dur)
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
