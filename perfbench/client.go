package main

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"

	"fbs/internal/cert"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// fleet is the load generator's set of FBS client principals, rebuilt
// from the gateway's provisioning state the way fbsgw's own clients are
// (identity from the stored private value, static directory from the
// stored certificates, CA-pinned verifier), except that the principals
// share a few UDP sockets: the framing carries each datagram's source
// principal and the gateway learns a reply route per principal.
type fleet struct {
	w      workload
	tenant principal.Address
	names  []principal.Address
	eps    []*core.Endpoint
	socks  []*transport.UDPTransport
	sockOf []int
	flowOf map[principal.Address]int
}

// sharedSock lets many client endpoints hold one socket while keeping
// Endpoint.Close from closing it.
type sharedSock struct{ transport.Transport }

func (sharedSock) Close() error { return nil }

func flowName(i int) string { return fmt.Sprintf("legit-%02d", i) }

func flowNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = flowName(i)
	}
	return out
}

func newFleet(w workload, st *provisionState) (*fleet, error) {
	suite, err := w.suiteID()
	if err != nil {
		return nil, err
	}
	gwAddr, ok := st.TenantUDP[tenantAddr]
	if !ok {
		return nil, fmt.Errorf("state has no listener for %q", tenantAddr)
	}
	dir := cert.NewStaticDirectory()
	own := make(map[principal.Address]*cert.Certificate)
	for _, wire := range st.Certs {
		c, err := cert.Unmarshal(wire)
		if err != nil {
			return nil, err
		}
		dir.Publish(c)
		own[c.Subject] = c
	}
	n, ok1 := new(big.Int).SetString(st.CAN, 16)
	e, ok2 := new(big.Int).SetString(st.CAE, 16)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("bad CA key in state")
	}
	ver := &cert.Verifier{CAKey: cryptolib.RSAPublicKey{N: n, E: e}, CA: "fbsgw"}

	f := &fleet{w: w, tenant: tenantAddr, flowOf: make(map[principal.Address]int)}
	for s := 0; s < w.sockets; s++ {
		u, err := transport.NewUDPTransport(principal.Address(fmt.Sprintf("sock-%d", s)), "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		f.socks = append(f.socks, u)
		if err := u.AddPeer(tenantAddr, gwAddr); err != nil {
			f.close()
			return nil, err
		}
	}
	for i := 0; i < w.flows; i++ {
		name := principal.Address(flowName(i))
		privHex, ok := st.ClientPrivate[string(name)]
		c := own[name]
		if !ok || c == nil {
			f.close()
			return nil, fmt.Errorf("state does not provision %q", name)
		}
		priv, err := hex.DecodeString(privHex)
		if err != nil {
			f.close()
			return nil, err
		}
		id, err := principal.NewIdentityWithPrivate(name, c.Group(), new(big.Int).SetBytes(priv))
		if err != nil {
			f.close()
			return nil, err
		}
		s := i % w.sockets
		ep, err := core.NewEndpoint(core.Config{
			Identity:      id,
			Transport:     sharedSock{f.socks[s]},
			Directory:     dir,
			Verifier:      ver,
			Cipher:        suite,
			AcceptCiphers: []core.CipherID{suite},
			// Against a challenging gateway the clients run the
			// prefilter for its sender half: a cookie jar that answers
			// challenges.
			Prefilter: core.PrefilterConfig{Enable: w.flood},
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.names = append(f.names, name)
		f.eps = append(f.eps, ep)
		f.sockOf = append(f.sockOf, s)
		f.flowOf[name] = i
	}
	return f, nil
}

func (f *fleet) close() {
	for _, ep := range f.eps {
		ep.Close()
	}
	for _, s := range f.socks {
		s.Close()
	}
}

// payloadGen makes request payloads from the seed: an 8-byte sequence
// number, a 4-byte flow index, a 1-byte transmission number, and bytes
// from a seeded pool at an offset the sequence number picks. An echo
// verifies only if every byte matches what the sequence number and
// flow imply; the transmission number says which (re)transmission of
// the round trip it answers.
type payloadGen struct {
	size int
	pool []byte
}

const (
	payloadPool   = 1 << 16
	payloadHeader = 13
)

func newPayloadGen(seed int64, size int) *payloadGen {
	r := rand.New(rand.NewSource(seed))
	pool := make([]byte, payloadPool+size)
	r.Read(pool)
	return &payloadGen{size: size, pool: pool}
}

func (g *payloadGen) body(seq uint64) []byte {
	off := int((seq * 0x9E3779B97F4A7C15) >> 48)
	return g.pool[off : off+g.size-payloadHeader]
}

// fill writes transmission tx of round trip (seq, flow) into dst's
// backing array.
func (g *payloadGen) fill(dst []byte, seq uint64, flow int, tx uint8) []byte {
	dst = append(dst[:0], make([]byte, payloadHeader)...)
	binary.BigEndian.PutUint64(dst, seq)
	binary.BigEndian.PutUint32(dst[8:], uint32(flow))
	dst[12] = tx
	return append(dst, g.body(seq)...)
}

// check parses and verifies an echoed payload byte for byte.
func (g *payloadGen) check(p []byte) (seq uint64, flow int, tx uint8, ok bool) {
	if len(p) != g.size {
		return 0, 0, 0, false
	}
	seq = binary.BigEndian.Uint64(p)
	flow = int(binary.BigEndian.Uint32(p[8:]))
	return seq, flow, p[12], bytes.Equal(p[payloadHeader:], g.body(seq))
}
