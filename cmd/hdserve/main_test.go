package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hypertree"
	"hypertree/internal/gen"
	"hypertree/internal/serve"
)

// TestRunServesDrainsAndExports boots the daemon as main does — generated
// database, every execution traced, spans exported to a file — answers a
// cyclic query, and drains on cancellation: run returns nil, the last stderr
// line is the final-metrics JSON, and the export file holds one OTLP/JSON
// payload per line.
func TestRunServesDrainsAndExports(t *testing.T) {
	dir := t.TempDir()
	o := options{
		addr:        "127.0.0.1:0",
		genRows:     300,
		genDomain:   100,
		genSeed:     5,
		portfile:    filepath.Join(dir, "port"),
		drain:       5 * time.Second,
		traceSample: 1,
		otelFile:    filepath.Join(dir, "otel.jsonl"),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, o, &stderr) }()

	addr := waitPortfile(t, o.portfile, done)
	const src = `ans(X1, X3) :- r1(X1, X2), r2(X2, X3), r3(X3, X1).`
	const posts = 3
	var rowCount int
	for i := 0; i < posts; i++ {
		body, _ := json.Marshal(serve.QueryRequest{Query: src})
		resp, err := http.Post("http://"+addr+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out serve.QueryResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d, decode error %v", i, resp.StatusCode, err)
		}
		rowCount = out.RowCount
	}

	db := gen.ServingDatabase(rand.New(rand.NewSource(o.genSeed)), o.genRows, o.genDomain)
	naive, err := hypertree.Compile(hypertree.MustParseQuery(src), hypertree.WithStrategy(hypertree.StrategyNaive))
	if err != nil {
		t.Fatal(err)
	}
	want, err := naive.Execute(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if rowCount != want.Rows() || rowCount == 0 {
		t.Fatalf("row_count %d, naive evaluation of the same database gives %d", rowCount, want.Rows())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancellation: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancellation")
	}

	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	last, ok := strings.CutPrefix(lines[len(lines)-1], "hdserve: final metrics ")
	if !ok {
		t.Fatalf("last stderr line is not the final metrics:\n%s", stderr.String())
	}
	var m serve.Metrics
	if err := json.Unmarshal([]byte(last), &m); err != nil {
		t.Fatalf("final metrics are not JSON: %v\n%s", err, last)
	}
	if m.Requests != posts || m.Errors != 0 || m.TraceSampled == 0 {
		t.Fatalf("final metrics: %d requests, %d errors, %d sampled; want %d, 0, > 0", m.Requests, m.Errors, m.TraceSampled, posts)
	}

	f, err := os.Open(o.otelFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payloads := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var p struct {
			ResourceSpans []json.RawMessage `json:"resourceSpans"`
		}
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil || len(p.ResourceSpans) == 0 {
			t.Fatalf("OTel line %d is not OTLP/JSON (%v): %.200s", payloads+1, err, sc.Text())
		}
		payloads++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if payloads == 0 {
		t.Fatal("no traces exported to the OTel file")
	}
}

// waitPortfile blocks until run has written its bound address, failing the
// test if run returns first or the file never appears.
func waitPortfile(t *testing.T, path string, done <-chan error) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		default:
		}
		if raw, err := os.ReadFile(path); err == nil && bytes.HasSuffix(raw, []byte("\n")) {
			return strings.TrimSpace(string(raw))
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("hdserve never wrote its portfile")
	return ""
}
