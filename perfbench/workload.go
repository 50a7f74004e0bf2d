package main

import (
	"fmt"
	"time"

	"fbs/internal/core"
	"fbs/internal/gateway"
)

// workload is one traffic mix offered to a live fbsgw. Every input the
// gateway sees is generated from the run's seed.
type workload struct {
	name       string
	flows      int    // client principals, each one warm flow
	sockets    int    // client UDP sockets the flows share
	window     int    // closed loop: round trips outstanding per socket
	payload    int    // request payload bytes
	suite      string // tenant and client cipher suite
	secret     bool   // client encrypts requests
	secretEcho bool   // gateway encrypts echoes

	// Open-loop flood mix (flood only): legitimate round trips per
	// second from one socket, spoofed datagrams per second from the
	// other, forged source addresses and their prefixes, and the share
	// of spoofed datagrams that are runts shorter than a header.
	flood         bool
	legitRate     float64
	spoofRate     float64
	spoofAddrs    int
	spoofPrefixes int
	runtShare     float64
}

var workloads = []workload{
	{
		name: "echo-small", flows: 64, sockets: 2, window: 32, payload: 64,
		suite: "AES-128-GCM",
	},
	{
		name: "echo-bulk", flows: 8, sockets: 2, window: 32, payload: 1400,
		suite: "ChaCha20-Poly1305", secret: true, secretEcho: true,
	},
	{
		name: "flood", flows: 64, sockets: 1, window: 32, payload: 64,
		suite: "AES-128-GCM",
		flood: true, legitRate: 2000, spoofRate: 20000,
		spoofAddrs: 100_000, spoofPrefixes: 256, runtShare: 0.10,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tenantAddr is the principal address of the benchmark's one tenant,
// which runs tenantShards shards.
const (
	tenantAddr   = "gw-edge"
	tenantShards = 2
)

// suiteID resolves the workload's suite in the core registry.
func (w workload) suiteID() (core.CipherID, error) {
	for _, s := range core.Suites() {
		if s.Name() == w.suite {
			return s.ID(), nil
		}
	}
	return 0, fmt.Errorf("unknown suite %q", w.suite)
}

// gatewayConfig is the fbsgw config the workload runs against: one
// echo tenant with two shards and the replay cache; the flood tenant
// adds the adaptive prefilter and keying admission of
// examples/fbsgw/gateway.json.
func (w workload) gatewayConfig() *gateway.Config {
	tc := gateway.TenantConfig{
		Name:         "edge",
		Address:      tenantAddr,
		Listen:       "127.0.0.1:0",
		Shards:       tenantShards,
		Suite:        w.suite,
		AcceptSuites: []string{w.suite},
		Mode:         "echo",
		SecretEcho:   w.secretEcho,
		ReplayCache:  true,
	}
	if w.flood {
		tc.Admission = &gateway.AdmissionConfig{UpcallRate: 200, UpcallBurst: 50}
		tc.Prefilter = &gateway.PrefilterConfig{Enable: true}
	}
	return &gateway.Config{
		AdminAddr:    "127.0.0.1:0",
		DrainTimeout: gateway.Duration(5 * time.Second),
		Tenants:      []gateway.TenantConfig{tc},
	}
}
