package core

import (
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/principal"
)

// The paper's replay defence is the window-based timestamp check of
// Section 6.2: stateless, loose-synchronisation-only, and deliberately
// imperfect — an attacker replaying within the freshness window succeeds,
// and higher layers (TCP sequencing, application nonces) are expected to
// finish the job.
//
// ReplayCache is an optional extension beyond the paper: it remembers the
// (sfl, confounder, timestamp) triples accepted within the freshness
// window and rejects exact duplicates. The memory is still soft state —
// dropping it merely re-opens the paper's documented in-window replay
// exposure, it never breaks the protocol — so datagram semantics are
// preserved. The paper hints at exactly this trade-off when noting that
// "complete replay protection can only be achieved in high-layer
// protocols".
//
// A signature is kept until its own timestamp is more than the window in
// the past — until Fresh can never accept that datagram again — not for
// a window after it arrived: a sender whose clock runs ahead keeps its
// datagrams fresh for up to twice the window, and forgetting them
// earlier would let a byte-exact replay back in. So a remembered
// signature is always a duplicate.
//
// Because every accepted datagram adds an entry that only the freshness
// window expires, the replay cache is the softest target for a
// state-holding attack: an authenticated peer churning flows grows it at
// line rate. The cache therefore participates in the shared Budget
// (CostReplayEntry per signature) and tracks per-source occupancy, so
// overload shows up attributed to the peer causing it.

// replaySig identifies a datagram within the freshness window.
type replaySig struct {
	SFL        SFL
	Confounder uint32
	Timestamp  Timestamp
	MAC        [8]byte // first half of the MAC disambiguates confounder collisions
}

// stripe picks the lock stripe for this signature. The confounder is
// already statistically random (it is generator output), so folding in
// the sfl low bits is enough to spread flows across stripes.
func (s replaySig) stripe(mask uint32) uint32 {
	return (s.Confounder ^ uint32(s.SFL)) & mask
}

// peerOcc is one source's occupancy within a stripe. Every entry from
// that source points at it; the record leaves the stripe's peer table
// when its count reaches zero. It is all the cache remembers per
// signature, so expiry sweeping keeps the per-peer counts exact: expiry
// reads the signature's own timestamp, so no arrival time is stored and
// with the 24-byte signature a map slot is 32 bytes.
type peerOcc struct {
	src principal.Address
	n   int
}

// replayStripe is one lock stripe: an independently locked shard of the
// signature map plus its share of the per-peer occupancy counts.
type replayStripe struct {
	mu       sync.Mutex
	seen     map[replaySig]*peerOcc
	peers    map[principal.Address]*peerOcc
	refusals uint64
	_        [40]byte
}

// occupy records one more entry from src and returns its occupancy
// record.
func (st *replayStripe) occupy(src principal.Address) *peerOcc {
	occ := st.peers[src]
	if occ == nil {
		occ = &peerOcc{src: src}
		st.peers[src] = occ
	}
	occ.n++
	return occ
}

// remove deletes sig under the stripe lock, keeping peer counts exact.
func (st *replayStripe) remove(sig replaySig, occ *peerOcc) {
	delete(st.seen, sig)
	if occ.n--; occ.n == 0 {
		delete(st.peers, occ.src)
	}
}

// ReplayStats snapshots replay-window occupancy for EndpointStats and
// /metrics.
type ReplayStats struct {
	// Entries is the number of signatures currently remembered.
	Entries int
	// Peers is the number of distinct sources holding entries.
	Peers int
	// Refusals counts datagrams turned away at the budget hard limit
	// because their signature could not be recorded (ReplayRefused).
	Refusals uint64
}

// ReplayVerdict is the outcome of a replay-window check.
type ReplayVerdict uint8

const (
	// ReplayFresh: first sighting within the window; the signature was
	// recorded and the datagram may be accepted.
	ReplayFresh ReplayVerdict = iota
	// ReplayDuplicate: an identical datagram was already accepted within
	// the window.
	ReplayDuplicate
	// ReplayRefused: the budget hard limit left no room to record the
	// signature, so the datagram must be refused. Accepting it
	// unrecorded — or evicting a resident signature to make room — would
	// re-open an in-window replay: the unrecorded (or evicted) datagram
	// could be replayed and accepted again. Refusal keeps the window
	// sound; the cost is availability, and soft state bounds that cost
	// to one freshness window (the sweep reclaims room as entries
	// expire).
	ReplayRefused
)

// ReplayCache suppresses exact duplicates inside the freshness window.
// It is safe for concurrent use: signatures are partitioned across
// power-of-two lock stripes so datagrams of different flows are checked
// in parallel. Expired entries are swept lazily, at most once per
// window, by whichever Check call notices the sweep is due.
type ReplayCache struct {
	window    time.Duration
	stripes   []replayStripe
	mask      uint32
	lastSweep atomic.Int64 // unix nanos of the last full sweep
	budget    *Budget
}

// NewReplayCache creates a cache whose entries expire once their
// timestamp is more than window in the past (use the endpoint's
// freshness window).
func NewReplayCache(window time.Duration) *ReplayCache {
	n := defaultStripeCount(1 << 30) // uncapped by table size
	r := &ReplayCache{
		window:  window,
		stripes: make([]replayStripe, n),
		mask:    uint32(n - 1),
	}
	for i := range r.stripes {
		r.stripes[i].seen = make(map[replaySig]*peerOcc)
		r.stripes[i].peers = make(map[principal.Address]*peerOcc)
	}
	return r
}

// SetBudget charges CostReplayEntry per remembered signature against b.
// Call before the cache serves traffic.
func (r *ReplayCache) SetBudget(b *Budget) { r.budget = b }

// Check records the datagram from src and classifies it; the caller has
// already found its timestamp fresh at now. A datagram is only ever
// accepted with its signature recorded: at the budget hard limit the
// newcomer is refused (ReplayRefused) rather than displacing a resident
// signature or passing unrecorded — either of those would let an
// attacker replay the displaced (or unrecorded) datagram within the
// window.
func (r *ReplayCache) Check(src principal.Address, h *Header, now time.Time) ReplayVerdict {
	var sig replaySig
	sig.SFL = h.SFL
	sig.Confounder = h.Confounder
	sig.Timestamp = h.Timestamp
	copy(sig.MAC[:], h.MACValue[:8])

	r.maybeSweep(now)
	st := &r.stripes[sig.stripe(r.mask)]
	st.mu.Lock()
	defer st.mu.Unlock()
	return r.checkLocked(st, src, sig)
}

// checkLocked is Check's body with sig already computed and its stripe
// lock already held.
func (r *ReplayCache) checkLocked(st *replayStripe, src principal.Address, sig replaySig) ReplayVerdict {
	if _, ok := st.seen[sig]; ok {
		return ReplayDuplicate
	}
	if !r.budget.TryCharge(CostReplayEntry) {
		st.refusals++
		return ReplayRefused
	}
	st.seen[sig] = st.occupy(src)
	return ReplayFresh
}

// CheckRun checks up to batchChunk datagram signatures in one pass: one
// sweep election for the run and one lock acquisition per stripe touched
// rather than one per datagram. Items that land on the same stripe are
// checked in run order, so an intra-run duplicate — two identical
// signatures always share a stripe — is classified exactly as a loop of
// Check calls would classify it; items on different stripes are
// independent, so their grouping order cannot change any verdict.
func (r *ReplayCache) CheckRun(srcs []principal.Address, hs []Header, now time.Time, verdicts []ReplayVerdict) {
	r.maybeSweep(now)
	n := len(hs)
	var sigs [batchChunk]replaySig
	var stripes [batchChunk]uint32
	var done [batchChunk]bool
	for i := 0; i < n; i++ {
		sigs[i].SFL = hs[i].SFL
		sigs[i].Confounder = hs[i].Confounder
		sigs[i].Timestamp = hs[i].Timestamp
		copy(sigs[i].MAC[:], hs[i].MACValue[:8])
		stripes[i] = sigs[i].stripe(r.mask)
	}
	for i := 0; i < n; i++ {
		if done[i] {
			continue
		}
		st := &r.stripes[stripes[i]]
		st.mu.Lock()
		for j := i; j < n; j++ {
			if !done[j] && stripes[j] == stripes[i] {
				verdicts[j] = r.checkLocked(st, srcs[j], sigs[j])
				done[j] = true
			}
		}
		st.mu.Unlock()
	}
}

// maybeSweep drops the entries whose timestamp has expired once the
// last full sweep is more than a window old. The CAS elects a single
// sweeper; everyone else proceeds to their stripe immediately, and the
// sweeper takes one stripe lock at a time so checks on other stripes
// continue in parallel.
func (r *ReplayCache) maybeSweep(now time.Time) {
	last := r.lastSweep.Load()
	n := now.UnixNano()
	if n-last <= int64(r.window) {
		return
	}
	if !r.lastSweep.CompareAndSwap(last, n) {
		return
	}
	swept := 0
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		for k, occ := range st.seen {
			if k.Timestamp.expired(now, r.window) {
				st.remove(k, occ)
				swept++
			}
		}
		st.mu.Unlock()
	}
	if swept > 0 {
		r.budget.Release(int64(swept) * CostReplayEntry)
	}
}

// Len returns the number of remembered datagrams (for tests and
// monitoring).
func (r *ReplayCache) Len() int {
	n := 0
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		n += len(st.seen)
		st.mu.Unlock()
	}
	return n
}

// Stats snapshots occupancy. Safe on nil (all zero).
func (r *ReplayCache) Stats() ReplayStats {
	if r == nil {
		return ReplayStats{}
	}
	var out ReplayStats
	distinct := make(map[principal.Address]struct{})
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		out.Entries += len(st.seen)
		out.Refusals += st.refusals
		for p := range st.peers {
			distinct[p] = struct{}{}
		}
		st.mu.Unlock()
	}
	out.Peers = len(distinct)
	return out
}

// PerPeer returns the current replay-window occupancy per source — the
// first-class budget input the overload plane watches to attribute
// state pressure to the peer creating it.
func (r *ReplayCache) PerPeer() map[principal.Address]int {
	if r == nil {
		return nil
	}
	out := make(map[principal.Address]int)
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		for p, occ := range st.peers {
			out[p] += occ.n
		}
		st.mu.Unlock()
	}
	return out
}
