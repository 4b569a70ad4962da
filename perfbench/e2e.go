package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cellmg/internal/server"
)

// closedGuard bounds a closed-loop run at this many times its nominal
// window.
const closedGuard = 2.5

// endToEnd is the untraced run: set-up cycles, the measured window against
// a fresh deployment, and only then the serial references and the byte
// check of every result. References come last so that rss_peak_mb is the
// deployment's peak, not the harness's.
func endToEnd(cfg *Config, w *Workload, seed int64, seconds float64, work string) (*result, error) {
	res := &result{Correct: true}
	t0 := time.Now()
	// setup_s is the median of SetupCycles cold cycles taken in three
	// batches: before the window, after it and after the references. A
	// host that runs slow for a few seconds then moves one batch, not the
	// whole sample.
	batch := cfg.SetupCycles / 3
	setup, err := setupTimes(work, "a", batch)
	if err != nil {
		return nil, err
	}

	specs := w.specPool(seed)
	bodies, err := specBodies(specs)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(work, "data")
	dep, err := openDeployment(dataDir)
	if err != nil {
		return nil, err
	}
	gen := &generator{c: newClient(), base: dep.base, specs: bodies}
	ctx := context.Background()
	var warm []outcome
	if w.Warmup > 0 {
		warm = gen.closedLoop(ctx, 1, w.Warmup, time.Time{}, "warmup")
	}
	start := time.Now()
	var outs []outcome
	if w.Loop == "open" {
		outs = gen.openLoop(ctx, w.schedule(seed, seconds, "arrivals"), start, "job")
	} else {
		// A fixed amount of work, not a fixed window: the same specs, each
		// the same number of times, in every run of this seed. The guard
		// only keeps a host far slower than the reference one within the
		// run's time limit.
		n := w.closedJobs(seconds)
		outs = gen.closedLoop(ctx, w.Clients, n, start.Add(time.Duration(closedGuard*seconds*float64(time.Second))), "job")
		if len(outs) < n {
			fmt.Fprintf(os.Stderr, "perfbench: only %d of %d jobs started within %gx the %gs window\n", len(outs), n, closedGuard, seconds)
		}
	}
	window := time.Since(start)
	gen.c.CloseIdleConnections()
	dep.Close()

	// Read the peak before the next set-up batch, so that rss_peak_mb stays
	// the deployment's.
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	xs, err := setupTimes(work, "b", batch)
	if err != nil {
		return nil, err
	}
	setup = append(setup, xs...)

	// Jobs cycle through the pool from its start, so the specs in use are
	// a prefix of it; only those need a reference.
	used := 0
	for _, o := range append(warm, outs...) {
		used = max(used, o.spec+1)
	}
	tRefs := time.Now()
	refs, err := references(specs[:used])
	if err != nil {
		return nil, err
	}
	refsTime := time.Since(tRefs)
	if xs, err = setupTimes(work, "c", cfg.SetupCycles-2*batch); err != nil {
		return nil, err
	}
	setup = append(setup, xs...)
	fmt.Printf("perfbench: phases set-up+warm-up %.1fs, window %.1fs, references %.1fs (%d specs)\n",
		start.Sub(t0).Seconds(), window.Seconds(), refsTime.Seconds(), used)
	verify(warm, refs)
	verify(outs, refs)
	res.count(warm)
	res.count(outs)
	reportFailures(append(warm, outs...))

	var lat, lags []float64
	var tasks int
	last := start
	hits := 0
	limit := time.Duration(w.LatencyLimitMS * float64(time.Millisecond))
	// Latency and throughput count every job that ran to done, so a run
	// with wrong results still reports them (next to correct=false); the
	// SLO counts only jobs that were also right.
	for _, o := range outs {
		lags = append(lags, ms(o.lag))
		if o.result == nil {
			continue
		}
		lat = append(lat, ms(o.latency))
		tasks += w.tasks()
		if o.done.After(last) {
			last = o.done
		}
		if o.ok && o.latency <= limit {
			hits++
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no job completed in the window")
	}
	beyond := float64(len(lat)) * (1 - w.TailPercentile/100)
	fmt.Printf("perfbench: %s seed=%d jobs=%d done=%d p50=%.3fms p90=%.3fms p95=%.3fms p99=%.3fms max=%.3fms; tail is p%g (%.0f samples beyond)\n",
		w.Name, seed, len(outs), len(lat), percentile(lat, 50), percentile(lat, 90), percentile(lat, 95),
		percentile(lat, 99), percentile(lat, 100), w.TailPercentile, beyond)
	if w.Loop == "open" {
		lagP99 := percentile(lags, 99)
		if maxLag := cfg.MaxLagShare * w.LatencyLimitMS; lagP99 > maxLag {
			return nil, fmt.Errorf("run invalid: generator lag p99 %.3fms exceeds %.3fms (%.0f%% of the %gms limit)",
				lagP99, maxLag, 100*cfg.MaxLagShare, w.LatencyLimitMS)
		}
		fmt.Printf("perfbench: generator lag p99=%.3fms\n", lagP99)
	}

	res.set("setup_s", percentile(setup, 50), "s")
	res.set("latency_p50_ms", percentile(lat, 50), "ms")
	res.set("latency_tail_ms", percentile(lat, w.TailPercentile), "ms")
	res.set("tasks_per_s", float64(tasks)/last.Sub(start).Seconds(), "1/s")
	res.set("slo_hit_ratio", float64(hits)/float64(len(outs)), "ratio")
	res.set("rss_peak_mb", rss, "MB")
	return res, nil
}

func specBodies(specs []server.JobSpec) ([][]byte, error) {
	out := make([][]byte, len(specs))
	for i, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// reportFailures prints the first few failed jobs to standard error.
func reportFailures(outs []outcome) {
	n := 0
	for _, o := range outs {
		if o.ok {
			continue
		}
		if n < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: job with spec %d failed: %s\n", o.spec, o.err)
		}
		n++
	}
	if n > 5 {
		fmt.Fprintf(os.Stderr, "perfbench: ... %d failed jobs in all\n", n)
	}
}
