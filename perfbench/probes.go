package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"

	fbs "fbs"
)

// Isolated layer probes. Each pushes the workload's own datagram shape
// (suite, payload size, secret flags, flow count, sockets, window)
// through one layer at a time, in this process, after the gateway has
// exited: suite crypto alone, then the core endpoint in memory, then a
// bare UDP transport echo with no FBS. The differences between adjacent
// rungs attribute the gateway's CPU per datagram to layers.

// perOp times fn over rounds of n calls and returns the median ns per
// call across rounds, so one preempted round does not skew it.
func perOp(rounds, n int, fn func(i int)) float64 {
	per := make([]float64, 0, rounds)
	k := 0
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(k)
			k++
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// allocsPer counts heap allocations per call of fn.
func allocsPer(n int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

type cryptoProbe struct{ sealNs, openNs float64 }

// probeCrypto seals the echo direction and opens the request direction
// through the registered suite alone: header encoded once, one flow
// key, the workload's payload size and secret flags.
func probeCrypto(w workload, seed int64) (cryptoProbe, error) {
	var out cryptoProbe
	id, err := w.suiteID()
	if err != nil {
		return out, err
	}
	s := core.SuiteByID(id)
	r := rand.New(rand.NewSource(seed))
	var kf [16]byte
	r.Read(kf[:])
	payload := make([]byte, w.payload)
	r.Read(payload)
	mac, mode := s.WireAlg(cryptolib.MACPrefixMD5, cryptolib.CBC)
	header := func(secret bool) core.Header {
		h := core.Header{Version: core.HeaderVersion, MAC: mac, Cipher: id, Mode: mode,
			SFL: core.SFL(r.Uint64()), Confounder: r.Uint32(), Timestamp: core.Timestamp(r.Uint32())}
		if secret {
			h.Flags = core.FlagSecret
		}
		return h
	}
	seal := func(h core.Header, dst []byte) ([]byte, error) {
		dst = h.Encode(dst[:0])
		return s.SealAppend(dst, 0, h, kf, payload, false, nil)
	}
	sealH := header(w.secretEcho)
	buf := make([]byte, 0, core.HeaderSize+w.payload+64)
	var serr error
	out.sealNs = perOp(15, 2000, func(int) {
		if _, err := seal(sealH, buf); err != nil {
			serr = err
		}
	})
	wire, err := seal(header(w.secret), nil)
	if err != nil || serr != nil {
		return out, fmt.Errorf("crypto probe seal: %v %v", err, serr)
	}
	var h core.Header
	n, err := h.Decode(wire)
	if err != nil {
		return out, err
	}
	body := wire[n:]
	plainBuf := make([]byte, 0, w.payload+64)
	_, plain, err := s.OpenAppend(plainBuf, h, kf, body, nil)
	if err != nil || !bytes.Equal(plain, payload) {
		return out, fmt.Errorf("crypto probe: open did not recover the payload (%v)", err)
	}
	out.openNs = perOp(15, 2000, func(int) {
		if _, _, err := s.OpenAppend(plainBuf[:0], h, kf, body, nil); err != nil {
			serr = err
		}
	})
	return out, serr
}

type coreProbe struct {
	sealNs, openNs           float64
	batchSealNs, batchOpenNs float64
	allocsPerDgram           float64
	wireLen                  int // sealed request length (header + body)
}

// coreSets is how many independent endpoint sets the core probe
// builds. Every set draws fresh SFLs, so whether two warm flows
// conflict in the server's flow-key caches (and then thrash its
// master-key cache) is a new draw per set, as it is per gateway boot;
// the probe reports the median set.
const coreSets = 5

// probeCore runs the workload's flows warm between one server endpoint
// (configured like the tenant's shards) and one endpoint per client
// flow, all on one in-memory network. It times the server's SealAppend
// (echo direction) and OpenAppend (request direction) at batch 1, and
// SealBatch/OpenBatch at batch 32, per datagram.
func probeCore(w workload, seed int64) (coreProbe, error) {
	var out coreProbe
	suite, err := w.suiteID()
	if err != nil {
		return out, err
	}
	dom, err := fbs.NewDomain("probe")
	if err != nil {
		return out, err
	}
	srvID, err := dom.NewPrincipal(tenantAddr)
	if err != nil {
		return out, err
	}
	ids := make([]*principal.Identity, w.flows)
	for i := range ids {
		if ids[i], err = dom.NewPrincipal(principal.Address(flowName(i))); err != nil {
			return out, err
		}
	}
	var sets []coreProbe
	for k := 0; k < coreSets; k++ {
		p, err := probeCoreSet(w, seed, suite, dom, srvID, ids)
		if err != nil {
			return out, err
		}
		sets = append(sets, p)
	}
	med := func(f func(coreProbe) float64) float64 {
		xs := make([]float64, len(sets))
		for i, p := range sets {
			xs[i] = f(p)
		}
		return median(xs)
	}
	return coreProbe{
		sealNs:         med(func(p coreProbe) float64 { return p.sealNs }),
		openNs:         med(func(p coreProbe) float64 { return p.openNs }),
		batchSealNs:    med(func(p coreProbe) float64 { return p.batchSealNs }),
		batchOpenNs:    med(func(p coreProbe) float64 { return p.batchOpenNs }),
		allocsPerDgram: med(func(p coreProbe) float64 { return p.allocsPerDgram }),
		wireLen:        sets[0].wireLen,
	}, nil
}

// probeCoreSet measures one freshly built set of endpoints. The server
// is a shard group routed as fbsgw routes: a request to the shard that
// owns its (source, destination) pair, an echo from the shard that owns
// (tenant, client).
func probeCoreSet(w workload, seed int64, suite core.CipherID, dom *fbs.Domain,
	srvID *principal.Identity, ids []*principal.Identity) (coreProbe, error) {
	var out coreProbe
	nw := transport.NewNetwork(transport.Impairments{})
	cfg := func(id *principal.Identity, replay bool) (core.Config, error) {
		tr, err := nw.Attach(id.Addr, 0)
		if err != nil {
			return core.Config{}, err
		}
		return core.Config{Identity: id, Transport: sharedSock{tr}, Directory: dom.Directory(),
			Verifier: dom.Verifier(), Cipher: suite, AcceptCiphers: []core.CipherID{suite},
			EnableReplayCache: replay}, nil
	}
	srvCfg, err := cfg(srvID, true)
	if err != nil {
		return out, err
	}
	srv, err := core.NewShardGroup(tenantShards, func(int) (core.Config, error) { return srvCfg, nil })
	if err != nil {
		return out, err
	}
	defer srv.Close()
	clients := make([]*core.Endpoint, w.flows)
	names := make([]principal.Address, w.flows)
	for i := range clients {
		names[i] = ids[i].Addr
		c, err := cfg(ids[i], false)
		if err != nil {
			return out, err
		}
		if clients[i], err = core.NewEndpoint(c); err != nil {
			return out, err
		}
		defer clients[i].Close()
	}
	inShard := func(dg transport.Datagram) *core.Endpoint { return srv.Shard(srv.ShardOfIncoming(dg)) }
	outShard := func(dg transport.Datagram) int { return srv.ShardOfPair(tenantAddr, dg.Destination) }

	gen := newPayloadGen(seed, w.payload)
	var seq uint64
	// sealRequests pre-seals n requests, cycling through the flows, so
	// the timed opens never see a replay: the tenant runs the replay
	// cache.
	sealRequests := func(n int) ([]transport.Datagram, error) {
		dgs := make([]transport.Datagram, n)
		for i := range dgs {
			seq++
			flow := i % w.flows
			dg := transport.Datagram{Source: names[flow], Destination: tenantAddr, Payload: gen.fill(nil, seq, flow, 0)}
			wire, err := clients[flow].SealAppend(nil, dg, w.secret)
			if err != nil {
				return nil, err
			}
			dgs[i] = transport.Datagram{Source: dg.Source, Destination: dg.Destination, Payload: wire}
		}
		return dgs, nil
	}
	echo := func(i int) transport.Datagram {
		flow := i % w.flows
		return transport.Datagram{Source: tenantAddr, Destination: names[flow], Payload: gen.fill(nil, uint64(i), flow, 0)}
	}
	// Warm every flow in both directions (keying, caches).
	warm, err := sealRequests(w.flows)
	if err != nil {
		return out, err
	}
	for i, dg := range warm {
		if _, err := inShard(dg).OpenAppend(nil, dg); err != nil {
			return out, fmt.Errorf("core probe warm open: %w", err)
		}
		e := echo(i)
		back, err := srv.Shard(outShard(e)).SealAppend(nil, e, w.secretEcho)
		if err != nil {
			return out, err
		}
		if _, err := clients[i].OpenAppend(nil, transport.Datagram{Source: tenantAddr, Destination: names[i], Payload: back}); err != nil {
			return out, fmt.Errorf("core probe warm echo: %w", err)
		}
	}
	out.wireLen = len(warm[0].Payload)

	const rounds, per, batch = 11, 1024, 32
	echoes := make([]transport.Datagram, max(2*w.flows, 64))
	for i := range echoes {
		echoes[i] = echo(i)
	}
	sbuf := make([]byte, 0, batch*(core.HeaderSize+w.payload+64))
	obuf := make([]byte, 0, batch*(w.payload+64))
	var perr error
	out.sealNs = perOp(rounds, per, func(i int) {
		e := echoes[i%len(echoes)]
		if _, err := srv.Shard(outShard(e)).SealAppend(sbuf[:0], e, w.secretEcho); err != nil {
			perr = err
		}
	})
	reqs, err := sealRequests(rounds * per)
	if err != nil {
		return out, err
	}
	out.openNs = perOp(rounds, per, func(i int) {
		if _, err := inShard(reqs[i]).OpenAppend(obuf[:0], reqs[i]); err != nil {
			perr = err
		}
	})

	// Batches hold one shard's datagrams, as a batched gateway would
	// hand each shard its own.
	res := make([]core.BatchResult, batch)
	echoRuns := make([][]transport.Datagram, tenantShards)
	for i := 0; len(echoRuns[0]) < batch || len(echoRuns[1]) < batch; i++ {
		e := echoes[i%len(echoes)]
		echoRuns[outShard(e)] = append(echoRuns[outShard(e)], e)
	}
	out.batchSealNs = perOp(rounds, per/batch, func(i int) {
		sh := i % tenantShards
		if _, ok := srv.Shard(sh).SealBatch(sbuf[:0], echoRuns[sh][:batch], w.secretEcho, res); ok != batch {
			perr = fmt.Errorf("core probe: SealBatch sealed %d of %d", ok, batch)
		}
	}) / batch
	if reqs, err = sealRequests(rounds * per); err != nil {
		return out, err
	}
	var chunks [][]transport.Datagram
	byShard := make([][]transport.Datagram, tenantShards)
	for _, dg := range reqs {
		sh := srv.ShardOfIncoming(dg)
		byShard[sh] = append(byShard[sh], dg)
		if len(byShard[sh]) == batch {
			chunks = append(chunks, byShard[sh])
			byShard[sh] = nil
		}
	}
	if len(chunks) < rounds*(per/batch)*3/4 {
		return out, fmt.Errorf("core probe: %d batches from %d requests", len(chunks), len(reqs))
	}
	n := len(chunks) / rounds
	out.batchOpenNs = perOp(rounds, n, func(i int) {
		c := chunks[i]
		if _, ok := inShard(c[0]).OpenBatch(obuf[:0], c, res); ok != batch {
			perr = fmt.Errorf("core probe: OpenBatch accepted %d of %d", ok, batch)
		}
	}) / batch

	// Allocations of the calls fbsgw makes per echoed datagram: Open on
	// the request, Seal on the reply.
	if reqs, err = sealRequests(2000); err != nil {
		return out, err
	}
	out.allocsPerDgram = allocsPer(len(reqs), func(i int) {
		opened, err := inShard(reqs[i]).Open(reqs[i])
		if err != nil {
			perr = err
			return
		}
		e := transport.Datagram{Source: tenantAddr, Destination: opened.Source, Payload: opened.Payload}
		if _, err := srv.Shard(outShard(e)).Seal(e, w.secretEcho); err != nil {
			perr = err
		}
	})
	return out, perr
}

type transportProbe struct {
	sendNs, recvNs           float64
	batchSendNs, batchRecvNs float64
	allocsPerDgram           float64
	allocBytesPerDgram       float64
	rawEchoPerS              float64
}

// probeTransport runs a bare UDPTransport echo with no FBS: a learning
// listener like fbsgw's, client sockets as in the workload, datagrams of
// the workload's sealed wire length. Receive costs are timed with the
// datagrams already queued, so they exclude waiting.
func probeTransport(w workload, wireLen int, seconds float64) (transportProbe, error) {
	var out transportProbe
	srv, err := transport.NewUDPTransport(tenantAddr, "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	defer srv.Close()
	srv.SetLearnPeers(true)
	sockets := w.sockets
	cli := make([]*transport.UDPTransport, sockets)
	for i := range cli {
		if cli[i], err = transport.NewUDPTransport(principal.Address(fmt.Sprintf("raw-%d", i)), "127.0.0.1:0"); err != nil {
			return out, err
		}
		defer cli[i].Close()
		if err := cli[i].AddPeer(tenantAddr, srv.LocalAddr().String()); err != nil {
			return out, err
		}
		if err := srv.AddPeer(principal.Address(fmt.Sprintf("raw-%d", i)), cli[i].LocalAddr().String()); err != nil {
			return out, err
		}
	}
	payload := make([]byte, wireLen)
	toSrv := transport.Datagram{Source: "raw-0", Destination: tenantAddr, Payload: payload}
	toCli := transport.Datagram{Source: tenantAddr, Destination: "raw-0", Payload: payload}

	// A drain goroutine keeps the client socket from overflowing while
	// the server's sends are timed.
	drainStop := make(chan struct{})
	var dwg sync.WaitGroup
	dwg.Add(1)
	go func() {
		defer dwg.Done()
		buf := make([]transport.Datagram, 32)
		for {
			if _, err := cli[0].ReceiveBatch(buf); err != nil {
				return
			}
			select {
			case <-drainStop:
				return
			default:
			}
		}
	}()

	// Queued bursts stay well inside the default socket buffer.
	const burst = 32
	var perr error
	fill := func() {
		for i := 0; i < burst; i++ {
			if err := cli[0].Send(toSrv); err != nil {
				perr = err
			}
		}
	}
	var recvPer []float64
	for r := 0; r < 200; r++ {
		fill()
		t0 := time.Now()
		for i := 0; i < burst; i++ {
			if _, err := srv.Receive(); err != nil {
				perr = err
			}
		}
		recvPer = append(recvPer, float64(time.Since(t0).Nanoseconds())/burst)
	}
	out.recvNs = median(recvPer)
	out.sendNs = perOp(15, 500, func(int) {
		if err := srv.Send(toCli); err != nil {
			perr = err
		}
	})
	bbuf := make([]transport.Datagram, burst)
	var brecvPer []float64
	for r := 0; r < 200; r++ {
		fill()
		t0 := time.Now()
		for got := 0; got < burst; {
			n, err := srv.ReceiveBatch(bbuf[:burst-got])
			if err != nil {
				perr = err
				break
			}
			got += n
		}
		brecvPer = append(brecvPer, float64(time.Since(t0).Nanoseconds())/burst)
	}
	out.batchRecvNs = median(brecvPer)
	sendBatch := make([]transport.Datagram, burst)
	for i := range sendBatch {
		sendBatch[i] = toCli
	}
	out.batchSendNs = perOp(15, 20, func(int) {
		if _, err := srv.SendBatch(sendBatch); err != nil {
			perr = err
		}
	}) / burst
	// The gateway's per-datagram transport calls: one Receive, one Send,
	// counted with the requests already queued. The replies go to a sink
	// socket that is emptied between rounds, outside the count.
	sink, err := transport.NewUDPTransport("raw-sink", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	defer sink.Close()
	if err := srv.AddPeer("raw-sink", sink.LocalAddr().String()); err != nil {
		return out, err
	}
	toSink := transport.Datagram{Source: tenantAddr, Destination: "raw-sink", Payload: payload}
	var before, after runtime.MemStats
	var mallocs, allocBytes uint64
	const allocRounds = 50
	for r := 0; r < allocRounds; r++ {
		fill()
		runtime.ReadMemStats(&before)
		for i := 0; i < burst; i++ {
			if _, err := srv.Receive(); err != nil {
				perr = err
			}
			if err := srv.Send(toSink); err != nil {
				perr = err
			}
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		allocBytes += after.TotalAlloc - before.TotalAlloc
		for i := 0; i < burst; i++ {
			if _, err := sink.Receive(); err != nil {
				perr = err
			}
		}
	}
	out.allocsPerDgram = float64(mallocs) / (allocRounds * burst)
	out.allocBytesPerDgram = float64(allocBytes) / (allocRounds * burst)
	close(drainStop)
	cli[0].Close()
	dwg.Wait()
	if perr != nil {
		return out, perr
	}
	rate, err := rawEcho(w, wireLen, seconds)
	out.rawEchoPerS = rate
	return out, err
}

// rawEcho measures the closed-loop echo rate of bare UDP transports: a
// scalar receive/send loop like fbsgw's, and batched clients with the
// workload's sockets and window.
func rawEcho(w workload, wireLen int, seconds float64) (float64, error) {
	srv, err := transport.NewUDPTransport(tenantAddr, "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv.SetLearnPeers(true)
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		for {
			dg, err := srv.Receive()
			if err != nil {
				return
			}
			srv.Send(transport.Datagram{Source: tenantAddr, Destination: dg.Source, Payload: dg.Payload}) //nolint:errcheck // a lost echo only lowers the rate
		}
	}()
	payload := make([]byte, wireLen)
	var mu sync.Mutex
	total := 0
	stop := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var cwg sync.WaitGroup
	socks := make([]*transport.UDPTransport, w.sockets)
	for s := range socks {
		name := principal.Address(fmt.Sprintf("raw-echo-%d", s))
		c, err := transport.NewUDPTransport(name, "127.0.0.1:0")
		if err != nil {
			srv.Close()
			swg.Wait()
			return 0, err
		}
		socks[s] = c
		if err := c.AddPeer(tenantAddr, srv.LocalAddr().String()); err != nil {
			return 0, err
		}
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			out := make([]transport.Datagram, w.window)
			for i := range out {
				out[i] = transport.Datagram{Source: name, Destination: tenantAddr, Payload: payload}
			}
			c.SendBatch(out) //nolint:errcheck // loss shows as a lower rate
			buf := make([]transport.Datagram, 32)
			n := 0
			for time.Now().Before(stop) {
				k, err := c.ReceiveBatch(buf)
				if err != nil {
					break
				}
				n += k
				c.SendBatch(out[:k]) //nolint:errcheck // loss shows as a lower rate
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}()
	}
	cwg.Wait()
	for _, c := range socks {
		c.Close()
	}
	srv.Close()
	swg.Wait()
	return float64(total) / seconds, nil
}
