// Command bench is the repository's performance ledger: five named
// workloads, end-to-end figures from an untraced pass and per-layer figures
// from a traced one. Four workloads drive a real hdserve process over HTTP;
// the fifth exercises the planning layers in process. See README.md beside
// this file for the metric glossary and how to read the output, and
// BENCHMARK.json at the repository root for the workloads, metrics and
// regression bounds an acceptance driver holds later changes to.
//
// Usage (run.sh changes to the checkout it sits in, so from anywhere):
//
//	bash bench/run.sh                                   every workload, both passes
//	bash bench/run.sh -workload serve_hot -trace 0      one workload, untraced pass
//	bash bench/run.sh -workload exec_enum -trace 1      its traced pass (writes trace.json)
//	bash bench/run.sh -aa 5                             five same-code sets, agreement check
//
// Flags: -workload name, -seed n, -seconds s (length of the measured phases),
// -trace 0|1, -out dir (relative to the checkout), -aa n. A single-workload
// run prints one line per metric — workload metric value unit n=samples — and
// ends with one JSON object; it exits non-zero on a wrong answer.
//
// The checkout measured is the working directory, which run.sh sets to the
// tree the bench itself was compiled from: hdserve is built from
// ./cmd/hdserve, so one run never describes two trees.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// buildDir is the directory, relative to the checkout (the working
// directory), that receives every build product and run output; the root
// .gitignore names it.
const buildDir = ".bench_build"

// binDir receives the binaries: the bench itself (run.sh) and hdserve.
var binDir = filepath.Join(buildDir, "bin")

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 20

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"serve_hot", "serve_churn", "exec_cyclic", "exec_enum", "plan_churn"}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all, each in a fresh process)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the measured phases, together, in seconds")
		trace    = flag.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); default both")
		out      = flag.String("out", filepath.Join(buildDir, "out"), "directory for facts files, server logs and trace.json")
		aa       = flag.Int("aa", 0, "run this many full untraced sets of the same code and check that they agree")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if _, err := os.Stat(filepath.Join("cmd", "hdserve")); err != nil {
		fatal(fmt.Errorf("the working directory is not a checkout of the repository (run bench/run.sh): %v", err))
	}

	if *workload == "" {
		d := driver{out: *out, seed: *seed, seconds: *seconds}
		if *aa > 0 {
			os.Exit(d.agreement(*aa))
		}
		os.Exit(d.fullRun(*trace))
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, out: filepath.Join(*out, *workload)}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}
	res, err := runWorkload(*workload, cfg)
	if err != nil {
		fatal(err)
	}
	if err := res.print(os.Stdout); err != nil {
		fatal(err)
	}
	if res.wrong > 0 {
		os.Exit(1)
	}
}

// runWorkload dispatches on the workload's name.
func runWorkload(name string, cfg runConfig) (*result, error) {
	if name == "plan_churn" {
		return runPlanChurn(cfg)
	}
	for _, w := range httpWorkloads {
		if w.name == name {
			return runHTTP(w, cfg)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
