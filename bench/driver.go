package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// A driver runs workloads as child processes of this same binary, one fresh
// process (and so one fresh hdserve) per workload and pass: peak memory and
// garbage-collector state never leak from one workload into the next.
type driver struct {
	out     string
	seed    int64
	seconds float64
}

// child runs one workload pass in a fresh process, echoes its output and
// returns its result line.
func (d driver) child(workload string, traced bool) (resultLine, error) {
	var line resultLine
	self, err := os.Executable()
	if err != nil {
		return line, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-trace", trace, "-out", d.out,
		"-seed", strconv.FormatInt(d.seed, 10), "-seconds", strconv.FormatFloat(d.seconds, 'g', -1, 64))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(stdout.Bytes())
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, fmt.Errorf("%s: no result line (%v, %v)", workload, runErr, err)
	}
	if runErr != nil {
		return line, fmt.Errorf("%s: %v", workload, runErr)
	}
	return line, nil
}

// fullRun runs every workload: the untraced pass, then the traced one
// (trace 0 or 1 keeps to one pass). It returns the process's exit code.
func (d driver) fullRun(trace int) int {
	code := 0
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			if trace >= 0 && traced != (trace == 1) {
				continue
			}
			line, err := d.child(w, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
			} else if !line.Correct || line.Failed > 0 {
				fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", w, line.Failed, line.Attempted)
				code = 1
			}
		}
	}
	if code == 0 {
		fmt.Printf("# outputs under %s\n", d.out)
	}
	return code
}

// benchmarkFile is the part of BENCHMARK.json the agreement mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// agreement runs n full untraced sets of the same code and prints, per
// workload × end-to-end metric, the median, the quartiles and the relative
// spread (interquartile distance over median; with fewer than four sets, the
// distance between the extremes over the median) against the metric's bound
// in BENCHMARK.json. Two sets disagree when a spread exceeds its bound or — from
// four sets on, as the acceptance driver does with its two rounds — when the
// second half's median is worse than the first half's by more than the bound.
// It returns the process's exit code: non-zero on disagreement or failure.
func (d driver) agreement(n int) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -aa needs at least 2 sets")
		return 2
	}
	var bf benchmarkFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	values := map[string][]float64{} // "workload metric" → one value per set
	code := 0
	for set := 0; set < n; set++ {
		fmt.Printf("# set %d of %d\n", set+1, n)
		for _, w := range workloadNames {
			line, err := d.child(w, false)
			if err != nil || !line.Correct || line.Failed > 0 {
				fmt.Fprintf(os.Stderr, "bench: set %d %s: failed (%v)\n", set+1, w, err)
				code = 1
				continue
			}
			for name, m := range line.Metrics {
				values[w+" "+name] = append(values[w+" "+name], m.Value)
			}
		}
	}
	fmt.Printf("# agreement over %d sets: workload metric median q1 q3 spread bound verdict\n", n)
	for _, w := range workloadNames {
		for _, e := range bf.EndToEnd {
			v := values[w+" "+e.Name]
			if len(v) < 2 {
				continue
			}
			q1, q3 := quartiles(v)
			spread := relSpread(v)
			if len(v) < 4 {
				// Quartiles of fewer than four values are extrapolated beyond
				// them (of two, to 1.5 × their distance): so few sets disagree
				// by the distance between their extremes.
				s := sorted(v)
				spread = (s[len(s)-1] - s[0]) / median(v)
			}
			verdict := "ok"
			if spread > e.Bound {
				verdict = "SPREAD"
			}
			if len(v) >= 4 {
				a, b := median(v[:len(v)/2]), median(v[len(v)/2:])
				worse := (b - a) / a
				if e.Better == "higher" {
					worse = (a - b) / a
				}
				if worse > e.Bound {
					verdict = "DRIFT"
				}
			}
			if verdict != "ok" {
				code = 1
			}
			fmt.Printf("%s %s %.6g %.6g %.6g %.4f %.2f %s\n", w, e.Name, median(v), q1, q3, spread, e.Bound, verdict)
		}
	}
	return code
}
