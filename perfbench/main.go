// Command perfbench is the repository benchmark. It deploys the job server
// in-process (cellmg-serve's defaults sized for the host), drives it over
// loopback HTTP with one workload from config.json, byte-checks every job
// result against a serial reference, and prints the end-to-end metrics.
// With -trace 1 it instead walks the workload's specs down the layer
// ladder (phylo kernels, search, native runtime, server, http) and prints
// the per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.py, which builds it from the checkout:
//
//	python3 perfbench/run.py --workload small-jobs --seed 1 --seconds 36 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cellmg/internal/stats"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// count folds job outcomes into the attempted/failed/correct totals. A
// wrong result makes the whole run incorrect; any job that did not end
// done-and-matching counts as failed.
func (r *result) count(outs []outcome) {
	for _, o := range outs {
		r.Attempted++
		if !o.ok {
			r.Failed++
		}
		if o.mismatch {
			r.Correct = false
		}
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name from config.json")
	seed := flag.Int64("seed", 0, "workload seed (0: the config's default seed)")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	traced := flag.Int("trace", 0, "1: run the traced layer ladder and print per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/perfbench", "working directory for data dirs and traces")
	flag.Parse()

	// The generator is part of the measured process: pin it to the host's
	// cores whatever the environment says.
	runtime.GOMAXPROCS(runtime.NumCPU())

	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, err := cfg.workload(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seed == 0 {
		*seed = cfg.DefaultSeed
	}
	work, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	var res *result
	if *traced == 1 {
		res, err = ladder(cfg, w, *seed, work, filepath.Dir(work))
	} else {
		res, err = endToEnd(cfg, w, *seed, *seconds, work)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// The host block is taken after the run, so that its calibration
	// buffer stays out of rss_peak_mb.
	hb, err := json.Marshal(map[string]any{"host": hostInfo(work, w.Name, *seed)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(hb))
	fmt.Println(string(rb))
	return 0
}

// percentile is the p-th percentile (0..100) with linear interpolation.
func percentile(xs []float64, p float64) float64 { return stats.Percentile(xs, p/100) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rssPeakMB is the process's VmHWM (peak resident set) in MiB.
func rssPeakMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
