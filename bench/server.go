package main

import (
	"bytes"
	"context"
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
)

// The pinned surface of the program under test, besides the root hypertree
// package: the hdserve flags -addr, -db and -portfile (every other flag stays
// at its default, so the shipped configuration is what is measured) and the
// routes below.
const (
	routeQuery   = "/query"
	routeIngest  = "/admin/ingest"
	routeMetrics = "/admin/metrics.json"
	routeHealth  = "/healthz"
)

// maxClients is the most load-generating connections the bench opens: the
// box has two cores and the bench is the only load source.
const maxClients = 2

// buildServer compiles ./cmd/hdserve of the checkout (the working directory)
// into binDir and returns the binary's path.
func buildServer() (string, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(binDir, "hdserve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/hdserve").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building hdserve: %v\n%s", err, out)
	}
	return bin, nil
}

// A server is one running hdserve process.
type server struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been waited for
	base   string        // http://host:port
	client *http.Client
	bootS  float64 // exec → first /healthz ok
}

// startServer executes bin over the facts file and waits until /healthz
// answers. dir receives the port file and the server's stderr log.
func startServer(bin, facts, dir string) (*server, error) {
	portfile := filepath.Join(dir, "port")
	_ = os.Remove(portfile) // a stale file would name a dead port
	logf, err := os.Create(filepath.Join(dir, "hdserve.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-db", facts, "-portfile", portfile)
	cmd.Stderr = logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, exited: make(chan struct{}), client: &http.Client{
		Timeout: 20 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        maxClients + 1,
			MaxIdleConnsPerHost: maxClients + 1,
		},
	}}
	go func() { _ = cmd.Wait(); close(s.exited) }()
	deadline := t0.Add(60 * time.Second)
poll:
	for time.Now().Before(deadline) {
		if s.base == "" {
			if b, err := os.ReadFile(portfile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				s.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if s.base != "" {
			if resp, err := s.client.Get(s.base + routeHealth); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					s.bootS = time.Since(t0).Seconds()
					return s, nil
				}
			}
		}
		select {
		case <-s.exited:
			break poll
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.stop()
	return nil, fmt.Errorf("hdserve did not become healthy (see %s)", logf.Name())
}

// stop terminates the server and waits for it to exit: SIGTERM first (the
// drain path), SIGKILL if it lingers.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.client.CloseIdleConnections()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// A queryReply is the subset of the /query response the bench reads.
type queryReply struct {
	Boolean   *bool         `json:"boolean"`
	Vars      []string      `json:"vars"`
	Rows      [][]string    `json:"rows"`
	RowCount  int           `json:"row_count"`
	Plan      string        `json:"plan"`
	Coalesced bool          `json:"coalesced"`
	CompileUS int64         `json:"compile_us"`
	ExecUS    int64         `json:"exec_us"`
	Trace     []programSpan `json:"trace"`
}

// post sends one JSON body and decodes a 2xx JSON reply into out.
func (s *server) post(ctx context.Context, route string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+route, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: status %d: %s", route, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// queryBody renders one /query payload.
func queryBody(query string, trace bool) []byte {
	b, _ := json.Marshal(struct {
		Query   string `json:"query"`
		MaxRows int    `json:"max_rows"`
		Trace   bool   `json:"trace,omitempty"`
	}{query, requestMaxRows, trace})
	return b
}

// query evaluates one query text.
func (s *server) query(ctx context.Context, body []byte) (*queryReply, error) {
	var r queryReply
	if err := s.post(ctx, routeQuery, body, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// ingest posts one batch of facts.
func (s *server) ingest(ctx context.Context, facts string) error {
	body, _ := json.Marshal(struct {
		Facts string `json:"facts"`
	}{facts})
	var out struct {
		FactsAdded int `json:"facts_added"`
	}
	return s.post(ctx, routeIngest, body, &out)
}

// serverMetrics is the subset of /admin/metrics.json the bench reads.
type serverMetrics struct {
	Requests   uint64 `json:"requests"`
	Errors     uint64 `json:"errors"`
	Rejected   uint64 `json:"rejected"`
	Executions uint64 `json:"executions"`
	Coalesced  uint64 `json:"coalesced"`
	Cache      struct {
		Hits      uint64
		Misses    uint64
		Evictions uint64
	} `json:"cache"`
	ColumnarHits   uint64 `json:"columnar_cache_hits"`
	ColumnarMisses uint64 `json:"columnar_cache_misses"`
}

// metrics reads the server's counters.
func (s *server) metrics() (serverMetrics, error) {
	var m serverMetrics
	resp, err := s.client.Get(s.base + routeMetrics)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("%s: status %d", routeMetrics, resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// Linux /proc readers. On a system without /proc they report !ok and the
// metrics built on them are omitted.

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it is
// 100 on every Linux ABI.
const clockTick = 100

// procPath names a /proc file of pid, or of this process when pid is 0.
func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// cpuSeconds returns the user+system CPU time pid has consumed.
func cpuSeconds(pid int) (float64, bool) {
	b, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, false
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, false
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, false
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return (ut + st) / clockTick, true
}

// peakRSSMB returns VmHWM, the peak resident set of pid, in MB.
func peakRSSMB(pid int) (float64, bool) {
	b, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, false
			}
			return kb / 1024, true
		}
	}
	return 0, false
}
