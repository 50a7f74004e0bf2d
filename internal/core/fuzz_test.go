package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"fbs/internal/principal"
	"fbs/internal/transport"
)

// Native Go fuzz targets. `go test` runs them over the seed corpus;
// `go test -fuzz=FuzzOpen ./internal/core` explores further.

func FuzzHeaderDecode(f *testing.F) {
	var h Header
	h.Version = HeaderVersion
	h.SFL = 42
	f.Add(h.Encode(nil))
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize-1))
	f.Add(make([]byte, HeaderSize+17))
	f.Fuzz(func(t *testing.T, b []byte) {
		var hh Header
		n, err := hh.Decode(b)
		if err == nil {
			// A successful decode must consume exactly HeaderSize and
			// re-encode to the same bytes.
			if n != HeaderSize {
				t.Fatalf("decode consumed %d", n)
			}
			re := hh.Encode(nil)
			for i := range re {
				if re[i] != b[i] {
					t.Fatalf("re-encode differs at %d", i)
				}
			}
		}
	})
}

// fuzzWorld is built once per fuzz process.
var fuzzEndpoint *Endpoint

func fuzzReceiver(f *testing.F) *Endpoint {
	f.Helper()
	if fuzzEndpoint != nil {
		return fuzzEndpoint
	}
	w := newWorld(f)
	net := transport.NewNetwork(transport.Impairments{})
	tr, err := net.Attach("fuzz-bob", 16)
	if err != nil {
		f.Fatal(err)
	}
	ep, err := NewEndpoint(Config{
		Identity:  w.principal(f, "fuzz-bob"),
		Transport: tr,
		Directory: w.dir,
		Verifier:  w.ver,
		Clock:     w.clock,
	})
	if err != nil {
		f.Fatal(err)
	}
	w.principal(f, "fuzz-alice")
	fuzzEndpoint = ep
	return ep
}

func FuzzOpen(f *testing.F) {
	ep := fuzzReceiver(f)
	var h Header
	h.Version = HeaderVersion
	f.Add(h.Encode(nil))
	f.Add([]byte("short"))
	f.Add(append(h.Encode(nil), make([]byte, 64)...))
	f.Fuzz(func(t *testing.T, payload []byte) {
		// Must never panic; must never accept (no key material in the
		// fuzzer's hands).
		if _, err := ep.Open(transport.Datagram{
			Source:      "fuzz-alice",
			Destination: "fuzz-bob",
			Payload:     payload,
		}); err == nil {
			t.Fatal("fuzzer forged an acceptable datagram")
		}
	})
}

// FuzzOpenBatchEquivalence holds OpenBatch to a loop of OpenAppend
// over mixed hostile batches. The fuzzer's bytes are a program of
// two-byte ops, each appending one datagram built from genuine sealed
// templates (two peers, authenticated and encrypted, some past the
// freshness window): the template as is — so repeats are in-window
// replays — truncated, bit-flipped, misaddressed, from an unknown
// source, or a raw runt. Two identically configured receivers with
// replay caches open the batch, one with OpenBatch and one datagram at
// a time; verdicts, recovered bytes and per-DropReason counters must
// match. Batches run past batchChunk so chunk boundaries are covered.
func FuzzOpenBatchEquivalence(f *testing.F) {
	w := newWorld(f)
	mk := func(tb testing.TB, name principal.Address, replay bool) *Endpoint {
		ep, err := NewEndpoint(Config{
			Identity:          w.principal(tb, name),
			Transport:         nullTransport{},
			Directory:         w.dir,
			Verifier:          w.ver,
			Clock:             w.clock,
			Cipher:            CipherAES128GCM,
			EnableReplayCache: replay,
		})
		if err != nil {
			tb.Fatal(err)
		}
		return ep
	}
	w.principal(f, "fz-recv")
	var templates []transport.Datagram
	seal := func(from *Endpoint, payload string, secret bool) {
		dg, err := from.Seal(transport.Datagram{Destination: "fz-recv", Payload: []byte(payload)}, secret)
		if err != nil {
			f.Fatal(err)
		}
		templates = append(templates, dg)
	}
	alice, bob := mk(f, "fz-alice", false), mk(f, "fz-bob", false)
	defer alice.Close()
	defer bob.Close()
	seal(alice, "stale authenticated", false)
	seal(bob, "stale secret", true)
	w.clock.Advance(21 * time.Minute)
	for i := 0; i < 3; i++ {
		seal(alice, fmt.Sprintf("alice %d", i), i == 1)
		seal(bob, fmt.Sprintf("bob %d with a longer body", i), i != 1)
	}

	f.Add([]byte{0, 2, 0, 3, 0, 2, 0, 4, 0, 5})
	f.Add([]byte{1, 3, 2, 4, 2, 0x41, 3, 5, 4, 7, 5, 6, 6, 9, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0, 3, 0, 4, 2, 9}, 25))
	f.Fuzz(func(t *testing.T, prog []byte) {
		var dgs []transport.Datagram
		for len(prog) >= 2 && len(dgs) < 2*batchChunk+8 {
			op, arg := prog[0], int(prog[1])
			prog = prog[2:]
			dg := templates[arg%len(templates)].Clone()
			switch op % 7 {
			case 0: // genuine (or stale, or a replay of an earlier op)
			case 1:
				dg.Payload = dg.Payload[:arg%len(dg.Payload)]
			case 2:
				dg.Payload[(arg*7)%len(dg.Payload)] ^= 1 << (arg % 8)
			case 3:
				dg.Destination = "fz-elsewhere"
			case 4:
				dg.Source = "fz-nobody"
			case 5:
				n := arg % 40
				if n > len(prog) {
					n = len(prog)
				}
				dg.Payload = append([]byte(nil), prog[:n]...)
			case 6:
				dg.Source = templates[(arg+1)%len(templates)].Source
			}
			dgs = append(dgs, dg)
		}
		batchRecv, loopRecv := mk(t, "fz-recv", true), mk(t, "fz-recv", true)
		defer batchRecv.Close()
		defer loopRecv.Close()

		res := make([]BatchResult, len(dgs))
		in := make([]transport.Datagram, len(dgs))
		for i := range dgs {
			in[i] = dgs[i].Clone()
		}
		out, n := batchRecv.OpenBatch(nil, in, res)
		accepted := 0
		for i, dg := range dgs {
			body, err := loopRecv.OpenAppend(nil, dg)
			if (err == nil) != (res[i].Err == nil) {
				t.Fatalf("datagram %d: batch err %v, single err %v", i, res[i].Err, err)
			}
			if err != nil {
				if br, sr := DropReasonOf(res[i].Err), DropReasonOf(err); br != sr {
					t.Fatalf("datagram %d: batch drop %v, single drop %v", i, br, sr)
				}
				continue
			}
			accepted++
			if got := out[res[i].Off : res[i].Off+res[i].Len]; !bytes.Equal(got, body) {
				t.Fatalf("datagram %d: batch plaintext %q, single %q", i, got, body)
			}
		}
		if n != accepted {
			t.Fatalf("OpenBatch accepted %d, single loop %d", n, accepted)
		}
		bm, lm := batchRecv.Metrics(), loopRecv.Metrics()
		if bm.Drops != lm.Drops || bm.Received != lm.Received || bm.ReceivedBytes != lm.ReceivedBytes {
			t.Fatalf("counters diverged:\nbatch %+v\nloop  %+v", bm, lm)
		}
	})
}
