package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/core"
	"fbs/internal/transport"
)

// engine drives round trips through the fleet and verifies every echo.
// Each client socket has one receiver goroutine; in the closed loop the
// receiver sends a flow's next request as soon as its echo verifies, so
// the number of round trips outstanding per socket stays at the
// workload's window. A sweeper expires round trips that miss the
// deadline (and, in the closed loop, replaces them).
type engine struct {
	f      *fleet
	gen    *payloadGen
	secret bool
	base   time.Time
	seq    atomic.Uint64
	loops  []*sockLoop

	closedLoop atomic.Bool   // receivers replace each verified round trip
	win        atomic.Uint32 // window id stamped on new round trips
	tracing    atomic.Bool

	// First-echo tracking for set-up.
	setupMu   sync.Mutex
	verified1 []bool
	left1     atomic.Int64
	setupDone chan struct{}

	logsMu sync.Mutex
	logs   []*spanLog

	// Echoes that failed verification, by cause.
	badRoute   atomic.Uint64 // not from the tenant, or to a principal not on this socket
	badOpen    atomic.Uint64 // the client endpoint refused the echo
	badBytes   atomic.Uint64 // payload does not match its sequence number and flow
	badSeq     atomic.Uint64 // a sequence number never sent
	late       atomic.Uint64 // straggling echo of an expired or already-answered round trip
	challenged atomic.Uint64 // cookie challenge addressed to a legitimate client
	cookies    []atomic.Bool // per flow: the endpoint holds a cookie (nil unless clients run the prefilter)
	sendErrs   atomic.Uint64

	stopSweep chan struct{}
	wg        sync.WaitGroup
}

// Window ids: round trips sent outside any window are not measured.
const (
	winNone = iota
	winMain
	winTraced
	numWins
)

// rtRec is one outstanding round trip.
type rtRec struct {
	flow int32
	win  uint8
	retx uint8 // retransmissions so far: tx[retx] is the latest
	// tx[i] is when transmission i was sealed, ns since base; tx[0] is
	// the scheduled send time in the open loop.
	tx   [maxTx]int64
	sent int64 // ns since base when the first send call returned
}

// maxTx bounds the transmissions of one round trip: a round trip not
// answered after maxTx transmissions waits out its deadline.
const maxTx = 16

// winResult accumulates one window's round trips.
type winResult struct {
	attempted uint64
	verified  uint64
	failed    uint64 // not verified within the deadline, retransmissions included
	retried   uint64 // verified, but only after at least one retransmission
	rttUS     []float64
	lateUS    []float64 // open loop: how late the generator sent
}

type sockLoop struct {
	e     *engine
	idx   int
	tr    *transport.UDPTransport
	flows []int

	mu      sync.Mutex
	pending map[uint64]rtRec
	closed  map[uint64]struct{} // expired, or answered after a retransmission: a later echo is a straggler
	res     [numWins]winResult

	spans *spanLog // receiver goroutine's spans
}

func newEngine(f *fleet, gen *payloadGen) *engine {
	e := &engine{
		f: f, gen: gen, secret: f.w.secret, base: time.Now(),
		verified1: make([]bool, len(f.eps)),
		setupDone: make(chan struct{}), stopSweep: make(chan struct{}),
	}
	e.left1.Store(int64(len(f.eps)))
	if f.w.flood {
		e.cookies = make([]atomic.Bool, len(f.eps))
	}
	for s, tr := range f.socks {
		l := &sockLoop{e: e, idx: s, tr: tr, pending: make(map[uint64]rtRec),
			closed: make(map[uint64]struct{}), spans: e.newSpanLog()}
		for i, so := range f.sockOf {
			if so == s {
				l.flows = append(l.flows, i)
			}
		}
		e.loops = append(e.loops, l)
	}
	for _, l := range e.loops {
		e.wg.Add(1)
		go l.receive()
	}
	e.wg.Add(1)
	go e.sweep()
	return e
}

func (e *engine) now() int64 { return int64(time.Since(e.base)) }

// newSpanLog gives one goroutine its own span log; the logs are read
// only after stop has joined every goroutine.
func (e *engine) newSpanLog() *spanLog {
	s := &spanLog{}
	e.logsMu.Lock()
	e.logs = append(e.logs, s)
	e.logsMu.Unlock()
	return s
}

// stop ends the receivers (by closing the fleet's sockets) and the
// sweeper, and waits for them.
func (e *engine) stop() {
	e.closedLoop.Store(false)
	close(e.stopSweep)
	e.f.close()
	e.wg.Wait()
}

// sender seals and sends requests for one goroutine, reusing its
// buffers.
type sender struct {
	l     *sockLoop
	arena []byte
	pbuf  []byte
	dgs   []transport.Datagram
	seqs  []uint64
	offs  []int
	spans *spanLog
}

func (l *sockLoop) newSender(spans *spanLog) *sender {
	return &sender{l: l, spans: spans, pbuf: make([]byte, 0, l.e.gen.size)}
}

// req is one request to send: a new round trip on flow (seq 0), or
// transmission tx of round trip seq.
type req struct {
	flow int
	seq  uint64
	tx   uint8
	due  int64 // open loop: scheduled send time; -1 times from the seal
}

// send seals the requests and hands them to the socket in one batch. A
// retransmission reseals the same sequence number (a fresh datagram,
// not a replay) and keeps the round trip's original due time.
func (s *sender) send(reqs []req) {
	e, l := s.l.e, s.l
	win := uint8(e.win.Load())
	tracing := e.tracing.Load()
	s.arena = s.arena[:0]
	s.dgs = s.dgs[:0]
	s.seqs = s.seqs[:0]
	offs := s.offs[:0]
	for _, r := range reqs {
		seq := r.seq
		if seq == 0 {
			seq = e.seq.Add(1)
		}
		payload := e.gen.fill(s.pbuf, seq, r.flow, r.tx)
		dg := transport.Datagram{Source: e.f.names[r.flow], Destination: e.f.tenant, Payload: payload}
		if e.cookies != nil && e.cookies[r.flow].Load() {
			// The gateway challenged this flow: Send wraps each datagram
			// in the cookie echo the flow's endpoint learned.
			if l.track(r, seq, e.now(), win) {
				if err := e.f.eps[r.flow].Send(dg, e.secret); err != nil {
					e.sendErrs.Add(1)
				}
			}
			continue
		}
		t0 := e.now()
		off := len(s.arena)
		var err error
		s.arena, err = e.f.eps[r.flow].SealAppend(s.arena, dg, e.secret)
		if tracing && r.seq == 0 {
			s.spans.add(seq, spanSeal, t0, e.now()-t0)
		}
		if err != nil {
			e.sendErrs.Add(1)
			s.arena = s.arena[:off]
			continue
		}
		if !l.track(r, seq, t0, win) {
			s.arena = s.arena[:off]
			continue
		}
		offs = append(offs, off)
		s.seqs = append(s.seqs, seq)
		s.dgs = append(s.dgs, transport.Datagram{Source: e.f.names[r.flow], Destination: e.f.tenant})
	}
	s.offs = offs
	for i := range s.dgs {
		end := len(s.arena)
		if i+1 < len(offs) {
			end = offs[i+1]
		}
		s.dgs[i].Payload = s.arena[offs[i]:end]
	}
	if len(s.dgs) == 0 {
		return
	}
	t0 := e.now()
	n, err := l.tr.SendBatch(s.dgs)
	t1 := e.now()
	if err != nil {
		e.sendErrs.Add(uint64(len(s.dgs) - n))
	}
	per := (t1 - t0) / int64(len(s.dgs))
	l.mu.Lock()
	for _, seq := range s.seqs {
		if r, ok := l.pending[seq]; ok && r.sent == 0 {
			r.sent = t1
			l.pending[seq] = r
			if tracing {
				s.spans.add(seq, spanSend, t0, per)
			}
		}
	}
	l.mu.Unlock()
}

// newReqs makes one new-round-trip request per flow.
func newReqs(dst []req, flows ...int) []req {
	for _, f := range flows {
		dst = append(dst, req{flow: f, due: -1})
	}
	return dst
}

// track records a transmission of round trip seq sealed at t0. It
// reports false for a retransmission whose round trip was answered
// meanwhile.
func (l *sockLoop) track(r req, seq uint64, t0 int64, win uint8) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.seq == 0 {
		due := t0
		if r.due >= 0 {
			due = r.due
			l.res[win].lateUS = append(l.res[win].lateUS, float64(t0-due)/1e3)
		}
		rec := rtRec{flow: int32(r.flow), win: win}
		rec.tx[0] = due
		l.pending[seq] = rec
		l.res[win].attempted++
		return true
	}
	p, ok := l.pending[seq]
	if !ok {
		return false
	}
	p.retx = r.tx
	p.tx[r.tx] = t0
	l.pending[seq] = p
	return true
}

// receive verifies echoes off one socket until it is closed.
func (l *sockLoop) receive() {
	e := l.e
	defer e.wg.Done()
	buf := make([]transport.Datagram, 32)
	plain := make([]byte, 0, 2048)
	snd := l.newSender(l.spans)
	var next []req
	for {
		t0 := e.now()
		n, err := l.tr.ReceiveBatch(buf)
		if err != nil {
			return
		}
		t1 := e.now()
		tracing := e.tracing.Load()
		per := (t1 - t0) / int64(n)
		next = next[:0]
		for i := 0; i < n; i++ {
			dg := buf[i]
			flow, ok := e.f.flowOf[dg.Destination]
			if !ok || dg.Source != e.f.tenant || e.f.sockOf[flow] != l.idx {
				e.badRoute.Add(1)
				continue
			}
			if len(dg.Payload) == core.CookieFrameLen && dg.Payload[0] == core.CookieMagic {
				e.challenged.Add(1)
				if e.cookies != nil {
					// The endpoint's prefilter absorbs the challenge into
					// its cookie jar; later sends echo the cookie.
					if _, err := e.f.eps[flow].OpenAppend(plain[:0], dg); errors.Is(err, core.ErrChallengeAbsorbed) {
						e.cookies[flow].Store(true)
					}
				}
				continue
			}
			o0 := e.now()
			var oerr error
			plain, oerr = e.f.eps[flow].OpenAppend(plain[:0], dg)
			o1 := e.now()
			if oerr != nil {
				e.badOpen.Add(1)
				continue
			}
			seq, pflow, tx, ok := e.gen.check(plain)
			if !ok || pflow != flow || tx >= maxTx {
				e.badBytes.Add(1)
				continue
			}
			l.mu.Lock()
			r, pending := l.pending[seq]
			if pending {
				delete(l.pending, seq)
				res := &l.res[r.win]
				res.verified++
				// Latency of the transmission this echo answers.
				res.rttUS = append(res.rttUS, float64(t1-r.tx[tx])/1e3)
				if r.retx > 0 {
					res.retried++
					l.closed[seq] = struct{}{}
				}
			} else if _, gone := l.closed[seq]; gone {
				e.late.Add(1)
			} else {
				e.badSeq.Add(1)
			}
			l.mu.Unlock()
			if !pending {
				continue
			}
			if tracing {
				l.spans.add(seq, spanRecv, t0, per)
				l.spans.add(seq, spanOpen, o0, o1-o0)
				if r.sent > 0 {
					l.spans.add(seq, spanWait, r.sent, t1-r.sent)
				}
			}
			e.firstEcho(flow)
			if e.closedLoop.Load() {
				next = newReqs(next, flow)
			}
		}
		if len(next) > 0 {
			snd.send(next)
		}
	}
}

func (e *engine) firstEcho(flow int) {
	if e.left1.Load() == 0 {
		return
	}
	e.setupMu.Lock()
	if !e.verified1[flow] {
		e.verified1[flow] = true
		if e.left1.Add(-1) == 0 {
			close(e.setupDone)
		}
	}
	e.setupMu.Unlock()
}

// rto is the client's retransmission timeout: a round trip whose echo
// has not verified this long after its latest transmission is sent
// again, as a datagram client retries a lost request. It sits just past
// the flood workload's normal latency tail, so a retried round trip's
// latency continues that tail instead of leaving a gap around the
// percentile that matches the loss rate.
const rto = 30 * time.Millisecond

// sweep retransmits round trips past the retransmission timeout and
// expires those past the deadline; in the closed loop each expired
// round trip is replaced so the window stays full.
func (e *engine) sweep() {
	defer e.wg.Done()
	t := time.NewTicker(rto / 6)
	defer t.Stop()
	senders := make([]*sender, len(e.loops))
	for i, l := range e.loops {
		senders[i] = l.newSender(e.newSpanLog())
	}
	var redo []req
	for {
		select {
		case <-e.stopSweep:
			return
		case <-t.C:
		}
		now := e.now()
		for i, l := range e.loops {
			redo = redo[:0]
			l.mu.Lock()
			for seq, r := range l.pending {
				switch {
				case now-r.tx[0] > int64(deadline):
					delete(l.pending, seq)
					l.closed[seq] = struct{}{}
					l.res[r.win].failed++
					if e.closedLoop.Load() {
						redo = newReqs(redo, int(r.flow))
					}
				case now-r.tx[r.retx] > int64(rto) && int(r.retx)+1 < maxTx:
					redo = append(redo, req{flow: int(r.flow), seq: seq, tx: r.retx + 1})
				}
			}
			l.mu.Unlock()
			if len(redo) > 0 {
				senders[i].send(redo)
			}
		}
	}
}

// setup sends each flow's first request, and a new one to any flow
// whose round trip expired, until every flow has completed one
// verified round trip. Retransmission covers ordinary loss.
func (e *engine) setup(timeout time.Duration) error {
	senders := make([]*sender, len(e.loops))
	for i, l := range e.loops {
		senders[i] = l.newSender(e.newSpanLog())
	}
	giveUp := time.Now().Add(timeout)
	for {
		e.setupMu.Lock()
		todo := make([][]req, len(e.loops))
		for flow, ok := range e.verified1 {
			if !ok {
				s := e.f.sockOf[flow]
				todo[s] = newReqs(todo[s], flow)
			}
		}
		e.setupMu.Unlock()
		for i, reqs := range todo {
			if len(reqs) > 0 {
				senders[i].send(reqs)
			}
		}
		select {
		case <-e.setupDone:
			return nil
		case <-time.After(deadline):
		}
		if time.Now().After(giveUp) {
			return fmt.Errorf("set-up: %d of %d flows without a verified echo after %v", e.left1.Load(), len(e.verified1), timeout)
		}
	}
}

// startClosed fills every socket's window; each verified echo then
// sends its flow's next request until stopClosed.
func (e *engine) startClosed() {
	e.closedLoop.Store(true)
	for _, l := range e.loops {
		reqs := make([]req, 0, e.f.w.window)
		for k := 0; k < e.f.w.window; k++ {
			reqs = newReqs(reqs, l.flows[k%len(l.flows)])
		}
		l.newSender(e.newSpanLog()).send(reqs)
	}
}

// stopClosed stops replacing round trips; those in flight still finish.
func (e *engine) stopClosed() { e.closedLoop.Store(false) }

// runOpen sends rate round trips per second from the first socket on a
// fixed schedule for d, cycling through its flows. Each round trip is
// timed from when it was due, so a stalled generator shows as latency.
func (e *engine) runOpen(rate float64, d time.Duration) {
	l := e.loops[0]
	snd := l.newSender(e.newSpanLog())
	start := e.now()
	interval := float64(time.Second) / rate
	total := int(rate * d.Seconds())
	var reqs []req
	for i := 0; i < total; {
		now := e.now()
		reqs = reqs[:0]
		for i < total && len(reqs) < 64 {
			due := start + int64(float64(i)*interval)
			if due > now {
				break
			}
			reqs = append(reqs, req{flow: l.flows[i%len(l.flows)], due: due})
			i++
		}
		if len(reqs) > 0 {
			snd.send(reqs)
			continue
		}
		next := start + int64(float64(i)*interval)
		time.Sleep(time.Duration(next - now))
	}
}

// drain waits until no round trip is outstanding (each either verified
// or expired by the sweeper).
func (e *engine) drain() {
	limit := time.Now().Add(deadline + time.Second)
	for time.Now().Before(limit) {
		left := 0
		for _, l := range e.loops {
			l.mu.Lock()
			left += len(l.pending)
			l.mu.Unlock()
		}
		if left == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// result merges one window's round trips across sockets.
func (e *engine) result(win int) winResult {
	var out winResult
	for _, l := range e.loops {
		l.mu.Lock()
		r := l.res[win]
		out.attempted += r.attempted
		out.verified += r.verified
		out.failed += r.failed
		out.retried += r.retried
		out.rttUS = append(out.rttUS, r.rttUS...)
		out.lateUS = append(out.lateUS, r.lateUS...)
		l.mu.Unlock()
	}
	return out
}
