package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Every workload, both passes, at a twentieth of the real length: the whole
// pipeline — build hdserve, start it, load, check answers against the naive
// strategy, trace, probe — must run clean and report every metric
// BENCHMARK.json lists. It builds and starts processes, so -short skips it.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs hdserve; skipped under -short")
	}
	t.Chdir("..") // the checkout this module is compiled against
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 3, seconds: 0.75, traced: traced, out: t.TempDir()}
			res, err := runWorkload(name, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.failed != 0 || res.wrong != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed, %d wrong; notes %v", name, traced, res.attempted, res.failed, res.wrong, res.notes)
			}
			var buf bytes.Buffer
			if err := res.print(&buf); err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			var line resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", name, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !line.Correct || len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: correct=%v with %d metrics, want %d", name, traced, line.Correct, len(line.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := line.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", name, traced, d.name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.out, "trace.json")); err != nil {
					t.Errorf("%s: traced pass wrote no trace.json: %v", name, err)
				}
			}
		}
	}
}
