package gateway

import (
	"strconv"

	"fbs/internal/obs"
	"fbs/internal/principal"
)

// RegisterMetrics mounts the gateway on an obs.Registry as one dynamic
// collector. A static per-endpoint registration (obs.RegisterEndpoint)
// would go stale at the first config swap — the registry has no
// unregister — so the gateway instead snapshots whatever epoch is live
// at scrape time and emits every shard's families itself, labelled
// with tenant, shard and config_epoch. The config_epoch label means a
// swap starts a new labelled series instead of making cumulative
// counters appear to reset mid-scrape.
func (g *Gateway) RegisterMetrics(r *obs.Registry) {
	r.RegisterFunc(func() []obs.Family {
		st := g.Stats()
		fams := []obs.Family{
			obs.GaugeFamily("fbs_gateway_config_epoch", "Sequence number of the live config epoch.", float64(st.Epoch)),
			obs.CounterFamily("fbs_gateway_swaps_total", "Completed zero-downtime config swaps.", st.Swaps),
			obs.CounterFamily("fbs_gateway_received_total", "Datagrams pulled off gateway listeners.", st.Received),
			obs.CounterFamily("fbs_gateway_delivered_total", "Accepted datagrams handed to the tenant mode.", st.Delivered),
			obs.CounterFamily("fbs_gateway_echoed_total", "Echo replies sealed and sent.", st.Echoed),
			obs.CounterFamily("fbs_gateway_echo_failures_total", "Echo replies that failed to seal or send.", st.EchoFailures),
			obs.CounterFamily("fbs_gateway_no_tenant_total", "Datagrams whose destination matched no tenant.", st.NoTenant),
			obs.CounterFamily("fbs_gateway_absorbed_total", "Prefilter control frames absorbed at the gateway.", st.Absorbed),
			obs.CounterFamily("fbs_gateway_redispatched_total", "Datagrams re-dispatched against a successor epoch after the one they loaded retired mid-batch.", st.Redispatched),
			obs.GaugeFamily("fbs_gateway_tenants", "Tenants in the live config epoch.", float64(len(st.Tenants))),
		}
		flows := obs.Family{
			Name: "fbs_gateway_active_flows",
			Help: "Active flows per tenant in the live epoch.",
			Type: "gauge",
		}
		for _, ts := range st.Tenants {
			flows.Samples = append(flows.Samples, obs.Sample{
				Labels: []obs.Label{{Key: "tenant", Value: ts.Name}},
				Value:  float64(ts.ActiveFlows),
			})
		}
		fams = append(fams, flows)

		// Per-shard endpoint families for the live epoch, through the
		// same exposition path a standalone endpoint uses.
		ep := g.current.Load()
		if ep == nil {
			return fams
		}
		epochLbl := obs.Label{Key: "config_epoch", Value: strconv.FormatUint(ep.seq, 10)}
		for _, ts := range st.Tenants {
			plane := ep.tenants[principal.Address(ts.Address)]
			if plane == nil {
				continue
			}
			for i := 0; i < plane.grp.NumShards(); i++ {
				fams = append(fams, obs.EndpointFamilies(plane.grp.Shard(i),
					obs.Label{Key: "tenant", Value: ts.Name},
					obs.Label{Key: "shard", Value: strconv.Itoa(i)},
					epochLbl,
				)...)
			}
		}
		return fams
	})
}
