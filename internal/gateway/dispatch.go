package gateway

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fbs/internal/core"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// Batched dispatch. Each listener runs one synchronous loop: a vector
// receive of up to dispatchBatch datagrams (recvmmsg on Linux UDP),
// a stable partition of the batch by (tenant plane, receiving shard),
// one OpenBatch per group, then the echoes regrouped by sending shard,
// sealed with one SealBatch and sent with one vector send per group.
// The loop returns to receive only once the whole batch is opened,
// echoed and counted, so "loops joined ⇒ nothing in flight" still holds
// for Shutdown and the ledger identity stays exact.

// dispatchBatch is the most datagrams one pass receives: the size of
// one recvmmsg vector.
const dispatchBatch = 32

// maxAttempts bounds how many config epochs one datagram (or one echo)
// is dispatched against. A datagram that loaded an epoch just as a swap
// retired it gets core.ErrDraining and is re-dispatched against the
// successor; only consecutive swaps racing the same datagram four times
// exhaust it.
const maxAttempts = 4

// testHookEpochLoaded, when a test sets it, runs after an open pass
// loads the epoch and before it opens anything against it — the window
// a racing swap lands in.
var testHookEpochLoaded func()

// serve is one listener's dispatch loop, for the gateway's lifetime.
func (g *Gateway) serve(ln *listener) {
	defer g.recvWG.Done()
	d := &dispatcher{g: g}
	for {
		n, err := transport.ReceiveBatch(ln.tr, d.raw[:])
		if err != nil {
			if errors.Is(err, transport.ErrClosed) || g.draining.Load() {
				return
			}
			g.rateLog.note(ioErrKind, 1, "gateway: listener %s: receive: %v", ln.addr, err)
			continue
		}
		g.received.Add(uint64(n))
		d.dispatch(d.raw[:n])
	}
}

// dispatcher holds one listener loop's scratch, reused across passes.
type dispatcher struct {
	g   *Gateway
	raw [dispatchBatch]transport.Datagram

	pending, retry []int
	groups         []group
	dgs            []transport.Datagram
	res            []core.BatchResult
	plain          []byte

	echoes, echoRetry []echo
	wire              []byte
	sends             []sendGroup
	out               []transport.Datagram
	lns               []*listener

	refused [core.NumDropReasons]refusal
}

// group is one partition cell: the members of a batch bound for one
// shard of one tenant plane, in arrival order.
type group struct {
	plane   *tenantPlane
	shard   int
	members []int
}

// echo is an accepted payload waiting to be sealed back to its sender.
type echo struct {
	plane   *tenantPlane
	dst     principal.Address
	payload []byte
}

// sendGroup is a run of sealed echoes in out that leaves through one
// tenant's listener.
type sendGroup struct {
	tenant   principal.Address
	from, to int
}

// refusal tallies one drop reason's refusals within a pass, with the
// first of them kept as the example a log line shows.
type refusal struct {
	n        uint64
	tenant   principal.Address
	src      principal.Address
	firstErr error
}

// dispatch processes one received batch to completion.
func (d *dispatcher) dispatch(batch []transport.Datagram) {
	d.plain = d.plain[:0]
	d.echoes = d.echoes[:0]
	d.openGroups(batch)
	d.sealEchoes()
	for r := range d.refused {
		if f := &d.refused[r]; f.n > 0 {
			d.g.rateLog.note(r, f.n, "gateway: tenant %s: refused datagram from %s: %v", f.tenant, f.src, f.firstErr)
			*f = refusal{}
		}
	}
	clear(batch)
	clear(d.dgs[:cap(d.dgs)])
}

// partition groups items by (plane, shard), keeping first-appearance
// order between groups and arrival order within each.
func (d *dispatcher) partition(plane *tenantPlane, shard, member int) {
	for k := range d.groups {
		if gr := &d.groups[k]; gr.plane == plane && gr.shard == shard {
			gr.members = append(gr.members, member)
			return
		}
	}
	if len(d.groups) < cap(d.groups) {
		d.groups = d.groups[:len(d.groups)+1]
		gr := &d.groups[len(d.groups)-1]
		gr.plane, gr.shard, gr.members = plane, shard, append(gr.members[:0], member)
		return
	}
	d.groups = append(d.groups, group{plane: plane, shard: shard, members: []int{member}})
}

// gather lays a group's datagrams out contiguously for one batch call
// and sizes the per-datagram result slots.
func (d *dispatcher) gather(gr *group, at func(int) transport.Datagram) ([]transport.Datagram, []core.BatchResult) {
	d.dgs = d.dgs[:0]
	for _, m := range gr.members {
		d.dgs = append(d.dgs, at(m))
	}
	if cap(d.res) < len(d.dgs) {
		d.res = make([]core.BatchResult, len(d.dgs))
	}
	return d.dgs, d.res[:len(d.dgs)]
}

// openGroups runs the batch through OpenBatch against the current epoch,
// re-dispatching ErrDraining results against the successor.
func (d *dispatcher) openGroups(batch []transport.Datagram) {
	g := d.g
	pending := d.pending[:0]
	for i := range batch {
		pending = append(pending, i)
	}
	at := func(i int) transport.Datagram { return batch[i] }
	for attempt := 0; attempt < maxAttempts && len(pending) > 0; attempt++ {
		ep := g.current.Load()
		if ep == nil {
			return
		}
		if attempt > 0 {
			g.redispatched.Add(uint64(len(pending)))
		}
		if testHookEpochLoaded != nil {
			testHookEpochLoaded()
		}
		d.groups = d.groups[:0]
		for _, i := range pending {
			plane := ep.tenants[batch[i].Destination]
			if plane == nil {
				g.noTenant.Add(1)
				continue
			}
			d.partition(plane, plane.grp.ShardOfIncoming(batch[i]), i)
		}
		retry := d.retry[:0]
		for k := range d.groups {
			gr := &d.groups[k]
			dgs, res := d.gather(gr, at)
			d.plain, _ = gr.plane.grp.Shard(gr.shard).OpenBatch(d.plain, dgs, res)
			for j, r := range res {
				i := gr.members[j]
				switch {
				case r.Err == nil:
					g.delivered.Add(1)
					if gr.plane.cfg.Mode != "sink" {
						d.echoes = append(d.echoes, echo{plane: gr.plane, dst: batch[i].Source, payload: d.plain[r.Off : r.Off+r.Len]})
					}
				case errors.Is(r.Err, core.ErrDraining):
					retry = append(retry, i)
				case errors.Is(r.Err, core.ErrChallengeAbsorbed):
					g.absorbed.Add(1)
				default:
					// Refused: the shard's drop ledger has the reason.
					f := &d.refused[core.DropReasonOf(r.Err)]
					if f.n == 0 {
						f.tenant, f.src, f.firstErr = gr.plane.id.Addr, batch[i].Source, r.Err
					}
					f.n++
				}
			}
		}
		d.retry = retry
		pending = append(pending[:0], retry...)
	}
	d.pending = pending
	// Consecutive swaps raced these datagrams on every attempt —
	// possible only under adversarial reconfiguration rates, but
	// counted so the reconciliation invariant stays exact rather than
	// approximately true.
	g.retryStarved.Add(uint64(len(pending)))
}

// sealEchoes seals the pass's echoes back to their senders, grouped by
// sending shard, and sends each group with one vector send on its
// tenant's listener. Like openGroups, it re-dispatches ErrDraining
// seals against the successor epoch.
func (d *dispatcher) sealEchoes() {
	g := d.g
	pending := d.echoes
	d.wire = d.wire[:0]
	d.out = d.out[:0]
	d.sends = d.sends[:0]
	at := func(i int) transport.Datagram {
		e := &pending[i]
		return transport.Datagram{Source: e.plane.id.Addr, Destination: e.dst, Payload: e.payload}
	}
	for attempt := 0; attempt < maxAttempts && len(pending) > 0; attempt++ {
		if attempt > 0 {
			cur := g.current.Load()
			live := pending[:0]
			for _, e := range pending {
				var np *tenantPlane
				if cur != nil {
					np = cur.tenants[e.plane.id.Addr]
				}
				if np == nil {
					g.echoFailures.Add(1)
					continue
				}
				e.plane = np
				live = append(live, e)
			}
			pending = live
		}
		d.groups = d.groups[:0]
		for i := range pending {
			e := &pending[i]
			d.partition(e.plane, e.plane.grp.ShardOfPair(e.plane.id.Addr, e.dst), i)
		}
		retry := d.echoRetry[:0]
		for k := range d.groups {
			gr := &d.groups[k]
			dgs, res := d.gather(gr, at)
			d.wire, _ = gr.plane.grp.Shard(gr.shard).SealBatch(d.wire, dgs, gr.plane.cfg.SecretEcho, res)
			from := len(d.out)
			for j, r := range res {
				switch {
				case r.Err == nil:
					d.out = append(d.out, transport.Datagram{Source: dgs[j].Source, Destination: dgs[j].Destination,
						Payload: d.wire[r.Off : r.Off+r.Len]})
				case errors.Is(r.Err, core.ErrDraining):
					retry = append(retry, pending[gr.members[j]])
				default:
					// A seal-side refusal: the shard's drop ledger counts
					// it under its reason, and so does the rate limiter.
					g.echoFailures.Add(1)
					g.rateLog.note(int(core.DropReasonOf(r.Err)), 1, "gateway: tenant %s: echo seal for %s: %v",
						gr.plane.id.Addr, dgs[j].Destination, r.Err)
				}
			}
			if len(d.out) > from {
				d.sends = append(d.sends, sendGroup{tenant: gr.plane.id.Addr, from: from, to: len(d.out)})
			}
		}
		d.echoRetry = retry
		pending = append(pending[:0], retry...)
	}
	g.echoFailures.Add(uint64(len(pending)))
	d.echoes = pending[:0]
	d.sendEchoes()
}

// sendEchoes hands each sealed group to its tenant's listener, resolving the
// listeners under one lock acquisition per batch.
func (d *dispatcher) sendEchoes() {
	if len(d.sends) == 0 {
		return
	}
	g := d.g
	lns := d.lns[:0]
	g.listenMu.Lock()
	for _, s := range d.sends {
		lns = append(lns, g.listeners[s.tenant])
	}
	g.listenMu.Unlock()
	d.lns = lns
	for k, s := range d.sends {
		dgs := d.out[s.from:s.to]
		if lns[k] == nil {
			g.echoFailures.Add(uint64(len(dgs)))
			g.opts.Logf("gateway: tenant %s: %d echoes: listener gone", s.tenant, len(dgs))
			continue
		}
		// A vector send stops at the first datagram it cannot hand off;
		// that one fails and the rest go out in another call, so each
		// echo is accounted exactly as a send of its own would be.
		for len(dgs) > 0 {
			n, err := transport.SendBatch(lns[k].tr, dgs)
			g.echoed.Add(uint64(n))
			if err == nil || n >= len(dgs) {
				break
			}
			g.echoFailures.Add(1)
			g.rateLog.note(ioErrKind, 1, "gateway: tenant %s: echo to %s: %v", s.tenant, dgs[n].Destination, err)
			dgs = dgs[n+1:]
		}
	}
	clear(d.out)
	clear(d.lns)
}

// logInterval is how often the gateway reports each kind of refusal:
// at most one line per DropReason (and one for transport errors) per
// interval, carrying the count suppressed since the previous line. The
// drop ledger keeps the exact totals, so a flood of refusals costs the
// daemon a handful of log writes, not one per datagram.
const logInterval = time.Second

// ioErrKind is the rate-limiter slot for listener receive and send
// errors, after the DropReason slots.
const ioErrKind = core.NumDropReasons

// rateLog rate-limits the refusal path's log lines (see logInterval).
type rateLog struct {
	mu    sync.Mutex
	logf  func(format string, args ...any)
	clock core.Clock
	kinds [core.NumDropReasons + 1]struct {
		next       time.Time
		suppressed uint64
	}
}

// kindName labels a refusal-log slot.
func kindName(kind int) string {
	if kind == ioErrKind {
		return "transport errors"
	}
	return core.DropReason(kind).String()
}

// note records n events of one kind. The first event of an interval is
// logged with the given message plus the count suppressed since the
// kind's previous line; the rest are only counted.
func (l *rateLog) note(kind int, n uint64, format string, args ...any) {
	now := l.clock.Now()
	l.mu.Lock()
	k := &l.kinds[kind]
	if now.Before(k.next) {
		k.suppressed += n
		l.mu.Unlock()
		return
	}
	more := k.suppressed + n - 1
	k.suppressed = 0
	k.next = now.Add(logInterval)
	l.mu.Unlock()
	msg := fmt.Sprintf(format, args...)
	if more > 0 {
		msg += fmt.Sprintf(" (+%d more %s since the last report)", more, kindName(kind))
	}
	l.logf("%s", msg)
}

// flush logs every kind's count suppressed since its last line, so the
// lines' counts add up to the exact totals at shutdown.
func (l *rateLog) flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for kind := range l.kinds {
		k := &l.kinds[kind]
		if k.suppressed > 0 {
			l.logf("gateway: %d more %s since the last report", k.suppressed, kindName(kind))
			k.suppressed = 0
		}
	}
}
