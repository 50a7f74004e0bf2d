package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fbs/internal/gateway"
)

// gwProc is one fbsgw child process, observed only from outside: its
// provisioning state file, its /metrics endpoint, /proc, its stderr
// line count and the stats JSON it prints when SIGTERM drains it.
type gwProc struct {
	cmd     *exec.Cmd
	dir     string
	started time.Time
	stdout  bytes.Buffer // read only once the process has exited
	stderr  logFile
	exited  chan struct{}
	waitErr error
	state   *provisionState
}

// provisionState mirrors the state file fbsgw writes for its clients.
type provisionState struct {
	CAN           string            `json:"ca_n"`
	CAE           string            `json:"ca_e"`
	Certs         [][]byte          `json:"certs"`
	ClientPrivate map[string]string `json:"client_private"`
	TenantUDP     map[string]string `json:"tenant_udp"`
	AdminAddr     string            `json:"admin_addr,omitempty"`
}

// logFile is where the gateway's stderr goes. A file, not a pipe: a
// pipe the benchmark drains could fill while the load generator is
// busy and stall the gateway's logging writes, which would then be
// the benchmark's doing.
type logFile struct{ path string }

func (l logFile) count() uint64 { n, _ := l.read(); return n }
func (l logFile) tail() string  { _, t := l.read(); return t }

// read returns the log's line count and its last few lines.
func (l logFile) read() (uint64, string) {
	b, err := os.ReadFile(l.path)
	if err != nil {
		return 0, ""
	}
	n := uint64(bytes.Count(b, []byte{'\n'}))
	tail := b
	for k := 0; k < 8; k++ {
		i := bytes.LastIndexByte(bytes.TrimRight(tail, "\n"), '\n')
		if i < 0 {
			break
		}
		tail = tail[:i]
	}
	return n, string(b[len(tail):])
}

// startGateway writes cfg into dir and execs fbsgw on it with the
// named clients pre-provisioned. cpu >= 0 pins the gateway to that CPU
// (through taskset, before its runtime starts any thread).
func startGateway(bin, dir string, cpu int, cfg *gateway.Config, clients []string) (*gwProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	blob, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cfgPath := filepath.Join(dir, "gateway.json")
	statePath := filepath.Join(dir, "fbsgw.state")
	if err := os.WriteFile(cfgPath, blob, 0o600); err != nil {
		return nil, err
	}
	if err := os.Remove(statePath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	g := &gwProc{dir: dir, stderr: logFile{filepath.Join(dir, "fbsgw.log")}, exited: make(chan struct{})}
	errFile, err := os.Create(g.stderr.path)
	if err != nil {
		return nil, err
	}
	defer errFile.Close() // the child holds its own descriptor
	args := []string{bin, "-config", cfgPath, "-state", statePath, "-clients", strings.Join(clients, ",")}
	if cpu >= 0 {
		args = append([]string{"taskset", "-c", strconv.Itoa(cpu)}, args...)
	}
	g.cmd = exec.Command(args[0], args[1:]...)
	g.cmd.Stdout = &g.stdout
	g.cmd.Stderr = errFile
	g.started = time.Now()
	if err := g.cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec fbsgw: %w", err)
	}
	go func() {
		g.waitErr = g.cmd.Wait()
		close(g.exited)
	}()
	return g, nil
}

// waitReady polls for the state file the daemon writes once it serves.
func (g *gwProc) waitReady(timeout time.Duration) error {
	statePath := filepath.Join(g.dir, "fbsgw.state")
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-g.exited:
			return fmt.Errorf("fbsgw exited during boot: %v\n%s", g.waitErr, g.stderr.tail())
		default:
		}
		if blob, err := os.ReadFile(statePath); err == nil {
			st := new(provisionState)
			if json.Unmarshal(blob, st) == nil && st.AdminAddr != "" && len(st.TenantUDP) > 0 {
				g.state = st
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fbsgw not ready within %v\n%s", timeout, g.stderr.tail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (g *gwProc) pid() int { return g.cmd.Process.Pid }

// cpuTicks is the gateway's utime+stime in clock ticks.
func (g *gwProc) cpuTicks() (uint64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(g.pid()) + "/stat")
	if err != nil {
		return 0, err
	}
	return procCPUTicks(string(b))
}

// peakRSSKB is the gateway's VmHWM.
func (g *gwProc) peakRSSKB() (uint64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(g.pid()) + "/status")
	if err != nil {
		return 0, err
	}
	return procStatusKB(string(b), "VmHWM")
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// scrape fetches and parses the gateway's /metrics.
func (g *gwProc) scrape() (promSet, error) {
	resp, err := scrapeClient.Get("http://" + g.state.AdminAddr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return parseProm(string(body))
}

// stop drains the gateway with SIGTERM and parses the final stats it
// prints. A gateway that does not exit in time is killed.
func (g *gwProc) stop(timeout time.Duration) (gwStats, error) {
	var st gwStats
	if err := g.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		g.kill()
		return st, fmt.Errorf("SIGTERM fbsgw: %w", err)
	}
	select {
	case <-g.exited:
	case <-time.After(timeout):
		g.kill()
		return st, fmt.Errorf("fbsgw did not drain within %v", timeout)
	}
	if g.waitErr != nil {
		return st, fmt.Errorf("fbsgw exit: %v\n%s", g.waitErr, g.stderr.tail())
	}
	if err := json.Unmarshal([]byte(g.stdout.String()), &st); err != nil {
		return st, fmt.Errorf("fbsgw final stats: %w", err)
	}
	return st, nil
}

// kill ends the process unconditionally and waits for it.
func (g *gwProc) kill() {
	select {
	case <-g.exited:
		return
	default:
	}
	_ = g.cmd.Process.Kill() // already exiting is fine; Wait below settles it
	<-g.exited
}
