package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Arithmetic the benchmark reports with: percentiles, /proc parsing,
// Prometheus text parsing, and the derived per-layer numbers. Kept free
// of I/O so stats_test.go can pin it.

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// ratio is num/den, or 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// procCPUTicks parses /proc/<pid>/stat and returns utime+stime in clock
// ticks. The command name (field 2) may hold spaces and parentheses, so
// fields are counted from the last ')'.
func procCPUTicks(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command terminator")
	}
	f := strings.Fields(stat[i+1:])
	// After the command: state(3) ppid(4) ... utime(14) stime(15), so
	// utime is the 12th field after ')' (index 11).
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return ut + st, nil
}

// procStatusKB returns a "Key:   N kB" field of /proc/<pid>/status.
func procStatusKB(status, key string) (uint64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		f := strings.Fields(line[len(key)+1:])
		if len(f) < 1 {
			break
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s", key)
}

// snmpCounter returns one counter of /proc/net/snmp, which pairs a
// header line of names with a line of values per protocol ("Udp:").
func snmpCounter(snmp, proto, name string) (uint64, error) {
	lines := strings.Split(snmp, "\n")
	for i := 0; i+1 < len(lines); i++ {
		if !strings.HasPrefix(lines[i], proto+":") || !strings.HasPrefix(lines[i+1], proto+":") {
			continue
		}
		names := strings.Fields(lines[i])
		vals := strings.Fields(lines[i+1])
		for j := 1; j < len(names) && j < len(vals); j++ {
			if names[j] == name {
				return strconv.ParseUint(vals[j], 10, 64)
			}
		}
		break
	}
	return 0, fmt.Errorf("snmp: no %s %s", proto, name)
}

// promSample is one sample line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promSet is a parsed /metrics scrape.
type promSet []promSample

// parseProm parses the Prometheus text format the gateway's admin plane
// serves: comment lines are skipped, label values are unescaped.
func parseProm(text string) (promSet, error) {
	var out promSet
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s := promSample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			s.name = line[:i]
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics: unterminated labels: %q", line)
			}
			if err := parseLabels(line[i+1:j], s.labels); err != nil {
				return nil, err
			}
			rest = strings.TrimSpace(line[j+1:])
		} else {
			sp := strings.IndexByte(line, ' ')
			if sp < 0 {
				return nil, fmt.Errorf("metrics: no value: %q", line)
			}
			s.name, rest = line[:sp], strings.TrimSpace(line[sp+1:])
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return nil, fmt.Errorf("metrics: no value: %q", line)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value of %q: %w", line, err)
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseLabels(body string, into map[string]string) error {
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return fmt.Errorf("metrics: bad labels %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		var val strings.Builder
		i := eq + 2
		for ; i < len(body) && body[i] != '"'; i++ {
			if body[i] == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(body[i])
				}
				continue
			}
			val.WriteByte(body[i])
		}
		if i >= len(body) {
			return fmt.Errorf("metrics: unterminated label value in %q", body)
		}
		into[key] = val.String()
		body = strings.TrimLeft(body[i+1:], ", ")
	}
	return nil
}

// sum adds every sample of a family whose labels include all of match
// (key, value pairs).
func (p promSet) sum(name string, match ...string) float64 {
	var t float64
next:
	for _, s := range p {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if s.labels[match[i]] != match[i+1] {
				continue next
			}
		}
		t += s.value
	}
	return t
}

// hitRatio is hits/(hits+misses) of one soft cache across all shards.
func (p promSet) hitRatio(cache string) float64 {
	h := p.sum("fbs_cache_hits_total", "cache", cache)
	m := p.sum("fbs_cache_misses_total", "cache", cache)
	return ratio(h, h+m)
}

// frameworkNs is the framework's share of one seal plus one open: the
// core calls minus the suite crypto they wrap.
func frameworkNs(coreSeal, coreOpen, cryptoSeal, cryptoOpen float64) float64 {
	return (coreSeal + coreOpen) - (cryptoSeal + cryptoOpen)
}

// dispatchNs attributes the gateway CPU per datagram that the isolated
// probes do not explain — one receive, one open, one seal and one send
// per echoed datagram — to gateway dispatch.
func dispatchNs(gwCPUusPerDgram, recvNs, sendNs, openNs, sealNs float64) float64 {
	return gwCPUusPerDgram*1000 - (recvNs + sendNs + openNs + sealNs)
}

// gwStats is the final reconciled stats document fbsgw prints on
// SIGTERM (the subset the benchmark checks).
type gwStats struct {
	Received     uint64            `json:"received"`
	Accepted     uint64            `json:"accepted"`
	Delivered    uint64            `json:"delivered"`
	Echoed       uint64            `json:"echoed"`
	EchoFailures uint64            `json:"echo_failures"`
	NoTenant     uint64            `json:"no_tenant"`
	Absorbed     uint64            `json:"absorbed"`
	RetryStarved uint64            `json:"retry_starved"`
	Drops        map[string]uint64 `json:"drops"`
}

// unaccounted is what the gateway's conservation identity
// Received == Accepted + ΣDrops + NoTenant + Absorbed + RetryStarved
// leaves over; it must be zero.
func (s gwStats) unaccounted() int64 {
	var drops uint64
	for _, v := range s.Drops {
		drops += v
	}
	return int64(s.Received) - int64(s.Accepted+drops+s.NoTenant+s.Absorbed+s.RetryStarved)
}
