package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"cellmg/internal/native"
	"cellmg/internal/phylo"
	"cellmg/internal/server"
	"cellmg/internal/stats"
)

// ladder is the traced run: the workload's first LadderJobs specs walk down
// the layers, each layer timed at its public entry point from outside —
// phylo kernels, the serial search, the native runtime, the
// in-process server, and the HTTP path. Spans go to a Chrome trace in
// traceDir; every result is byte-checked like the untraced run's.
func ladder(cfg *Config, w *Workload, seed int64, work, traceDir string) (*result, error) {
	res := &result{Correct: true}
	tr := newTracer()
	specs := w.specPool(seed)[:min(w.LadderJobs, w.Pool)]
	refs, err := references(specs)
	if err != nil {
		return nil, err
	}
	in := make([]ladderInput, len(specs))
	for i, s := range specs {
		data, opts, err := analysisInputs(s)
		if err != nil {
			return nil, err
		}
		in[i] = ladderInput{job: fmt.Sprintf("spec-%02d", i), spec: s, data: data, opts: opts, ref: refs[i]}
	}

	if err := kernelStep(res, tr, in); err != nil {
		return nil, err
	}
	searchMS, err := searchStep(res, tr, in)
	if err != nil {
		return nil, err
	}
	nativeMS, err := nativeStep(res, tr, in, w.tasks())
	if err != nil {
		return nil, err
	}
	res.set("native.speedup", mean(searchMS)/mean(nativeMS), "ratio")
	if err := serverStep(res, tr, in, nativeMS, filepath.Join(work, "ladder-server")); err != nil {
		return nil, err
	}
	if err := httpStep(res, tr, w, seed, in, work, cfg.RestartCopies); err != nil {
		return nil, err
	}

	for name, m := range res.Metrics {
		if c, ok := cfg.PerLayer[name]; !ok || c.Unit != m.Unit {
			return nil, fmt.Errorf("per-layer metric %s (%s) has no matching claim in config.json", name, m.Unit)
		}
	}
	if len(res.Metrics) != len(cfg.PerLayer) {
		return nil, fmt.Errorf("config.json claims %d per-layer metrics, the ladder measured %d", len(cfg.PerLayer), len(res.Metrics))
	}

	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", w.Name, seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Printf("perfbench: %s seed=%d ladder over %d specs; spans in %s\n", w.Name, seed, len(in), path)
	printSelfTimes(os.Stdout, tr.selfTimes())
	return res, nil
}

type ladderInput struct {
	job  string
	spec server.JobSpec
	data *phylo.PatternAlignment
	opts native.AnalysisOptions
	ref  []byte
}

// check byte-compares a layer's result for one spec with the spec's serial
// reference and counts it as one attempted operation.
func check(res *result, in ladderInput, layer string, r *server.Result, err error) {
	res.Attempted++
	if err != nil {
		res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", layer, in.job, err)
		return
	}
	if got, err := encodeResult(r); err != nil || !bytes.Equal(got, in.ref) {
		res.Failed++
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: result differs from the serial reference\n", layer, in.job)
	}
}

// kernelStep times the three off-loaded kernels on each spec's alignment:
// Newview on an internal node, a full sweep, and OptimizeBranch on a middle
// edge, each call a span. Bytes and flops per Newview are computed from the
// alignment shape, not measured.
func kernelStep(res *result, tr *tracer, in []ladderInput) error {
	var newview, sweep, makenewz []float64
	var nvBytes, nvFlops float64
	// timed runs fn as one span and returns its duration in nanoseconds.
	timed := func(name, job string, parent int, fn func()) float64 {
		sp := tr.begin(name, job, parent)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		tr.end(sp)
		return float64(d.Nanoseconds())
	}
	// Kernel calls are short and repeatable: a few specs are plenty.
	for _, x := range in[:min(len(in), 4)] {
		root := tr.begin("phylo", x.job, -1)
		eng, err := phylo.NewEngine(x.data, x.opts.Model, x.opts.Rates)
		if err != nil {
			return err
		}
		tree, err := phylo.NewRandomTree(x.data.Names, rand.New(rand.NewSource(x.opts.Seed)))
		if err != nil {
			return err
		}
		eng.LogLikelihood(tree)
		node, edge := kernelNodes(tree)
		for i := 0; i < 200; i++ {
			newview = append(newview, timed("phylo.newview", x.job, root, func() {
				//cellmg:allow invalidation -- kernel timing in isolation; inputs unchanged, so the recomputed vector is bit-identical and tracking stays consistent
				eng.Newview(node)
			})/1e3)
		}
		for i := 0; i < 20; i++ {
			sweep = append(sweep, timed("phylo.sweep", x.job, root, func() {
				eng.InvalidateAll()
				eng.LogLikelihood(tree)
			})/1e6)
		}
		for i := 0; i < 50; i++ {
			makenewz = append(makenewz, timed("phylo.makenewz", x.job, root, func() { eng.OptimizeBranch(tree, edge) })/1e3)
		}
		tr.end(root)
		// One inner-inner Newview reads two child vectors and their scalers
		// and writes one of each; per pattern and category it does two 4x4
		// matrix-vector products (28 flops each) and 4 multiplies.
		pc := float64(eng.NumPatterns() * x.opts.Rates.Count())
		nvBytes = 3*pc*phylo.NumStates*8 + 3*float64(eng.NumPatterns())*8
		nvFlops = pc * (2*28 + 4)
	}
	res.set("phylo.newview_us", percentile(newview, 50), "us")
	res.set("phylo.sweep_ms", percentile(sweep, 50), "ms")
	res.set("phylo.makenewz_us", percentile(makenewz, 50), "us")
	res.set("phylo.newview_bytes", nvBytes, "B")
	res.set("phylo.newview_flops", nvFlops, "flop")
	return nil
}

// kernelNodes picks an internal non-root node, preferring one whose
// children are both internal (the heaviest Newview case), and the middle
// edge of the node list.
func kernelNodes(t *phylo.Tree) (node, edge *phylo.Node) {
	node = t.Root
	for _, n := range t.Nodes[t.NumTaxa():] {
		if n == t.Root {
			continue
		}
		inner := !n.Children[0].IsTip() && !n.Children[1].IsTip()
		if inner || node == t.Root {
			node = n
		}
		if inner {
			break
		}
	}
	edge = t.Nodes[len(t.Nodes)/2]
	if edge == t.Root {
		edge = t.Nodes[0]
	}
	return node, edge
}

// searchStep runs the serial phylo.RunAnalysis on each spec, then
// every task of the spec again as one Engine.SearchInto to read its exact
// kernel counts. It returns the per-spec RunAnalysis times.
func searchStep(res *result, tr *tracer, in []ladderInput) ([]float64, error) {
	var jobMS []float64
	var newview, makenewz, evaluate, repeats, patternEvals, accepted, evaluated, tasks float64
	ctx := context.Background()
	for _, x := range in {
		o := x.opts
		sp := tr.begin("search.job", x.job, -1)
		t0 := time.Now()
		pr, err := phylo.RunAnalysis(x.data, o.Model, o.Rates, phylo.AnalysisOptions{
			Inferences: o.Inferences, Bootstraps: o.Bootstraps, Search: o.Search, Seed: o.Seed,
		})
		jobMS = append(jobMS, ms(time.Since(t0)))
		tr.end(sp)
		var r *server.Result
		if err == nil {
			r = server.ResultFromAnalysis(&native.AnalysisResult{BestTree: pr.BestTree, BestLogLik: pr.BestLogLik,
				InferenceLogs: pr.InferenceLogs, Replicates: pr.Replicates, Support: pr.Support})
		}
		check(res, x, "search", r, err)

		root := tr.begin("search.tasks", x.job, -1)
		for _, t := range taskList(o) {
			data, seed := x.data, phylo.DeriveSeed(o.Seed, phylo.SeedStreamInference, t.Index)
			if t.Bootstrap {
				wrng := rand.New(rand.NewSource(phylo.DeriveSeed(o.Seed, phylo.SeedStreamBootstrapWeights, t.Index)))
				if data, err = x.data.WithWeights(phylo.BootstrapWeights(x.data, wrng)); err != nil {
					return nil, err
				}
				seed = phylo.DeriveSeed(o.Seed, phylo.SeedStreamBootstrapSearch, t.Index)
			}
			eng, err := phylo.NewEngine(data, o.Model, o.Rates)
			if err != nil {
				return nil, err
			}
			tree, err := phylo.NewRandomTree(data.Names, rand.New(rand.NewSource(seed)))
			if err != nil {
				return nil, err
			}
			so := o.Search
			so.Seed = seed
			var sr phylo.SearchResult
			sp := tr.begin("search.task", x.job, root)
			err = eng.SearchInto(ctx, tree, so, &sr)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			st := eng.Stats
			newview += float64(st.NewviewCalls)
			makenewz += float64(st.MakenewzCalls)
			evaluate += float64(st.EvaluateCalls)
			repeats += float64(st.RepeatsCopied)
			patternEvals += float64(st.NewviewCalls * eng.NumPatterns())
			accepted += float64(sr.NNIAccepted)
			evaluated += float64(sr.NNIEvaluated)
			tasks++
		}
		tr.end(root)
	}
	res.set("search.job_ms", mean(jobMS), "ms")
	res.set("search.newview_calls", newview/tasks, "count")
	res.set("search.makenewz_calls", makenewz/tasks, "count")
	res.set("search.evaluate_calls", evaluate/tasks, "count")
	res.set("search.nni_accept_ratio", ratio(accepted, evaluated), "ratio")
	res.set("search.repeat_share", ratio(repeats, patternEvals), "ratio")
	return jobMS, nil
}

func taskList(o native.AnalysisOptions) []native.TaskID {
	var out []native.TaskID
	for i := 0; i < max(o.Inferences, 1); i++ {
		out = append(out, native.TaskID{Index: i})
	}
	for b := 0; b < o.Bootstraps; b++ {
		out = append(out, native.TaskID{Bootstrap: true, Index: b})
	}
	return out
}

// nativeStep runs each spec on a bare runtime configured as the server's,
// one analysis at a time, reading the runtime's counters and an off-load
// collector around it. It returns the per-spec wall times.
func nativeStep(res *result, tr *tracer, in []ladderInput, tasksPerJob int) ([]float64, error) {
	rt := native.New(native.Options{Workers: runtime.NumCPU(), Policy: native.MGPS})
	defer rt.Close()
	var jobMS []float64
	var queueWait, busy, capacity, shared, serial, switches, cpu float64
	var offloads int
	for _, x := range in {
		col := &stats.OffloadCollector{}
		o := x.opts
		o.Sink = col
		before := rt.Stats()
		cpu0 := cpuTime()
		sp := tr.begin("native.job", x.job, -1)
		t0 := time.Now()
		r, err := native.RunAnalysisContext(context.Background(), rt, x.data, o)
		wall := time.Since(t0)
		tr.end(sp)
		cpu += ms(cpuTime() - cpu0)
		after := rt.Stats()
		if err != nil {
			check(res, x, "native", nil, err)
		} else {
			check(res, x, "native", server.ResultFromAnalysis(r), nil)
		}
		jobMS = append(jobMS, ms(wall))
		sum := col.Summary()
		queueWait += ms(sum.QueueWaitTotal)
		offloads += sum.Offloads
		for i := range after.WorkerBusy {
			busy += ms(after.WorkerBusy[i] - before.WorkerBusy[i])
		}
		capacity += ms(wall) * float64(len(after.WorkerBusy))
		shared += float64(after.LoopsWorkShared - before.LoopsWorkShared)
		serial += float64(after.LoopsSerial - before.LoopsSerial)
		switches += float64(after.Switches - before.Switches)
	}
	n := float64(len(in))
	res.set("native.job_ms", mean(jobMS), "ms")
	res.set("native.queue_wait_ms", ratio(queueWait, float64(offloads)), "ms")
	res.set("native.worker_busy_ratio", ratio(busy, capacity), "ratio")
	res.set("native.loops_shared_ratio", ratio(shared, shared+serial), "ratio")
	res.set("native.mgps_switches", switches/n, "count")
	res.set("native.cpu_ms_per_task", cpu/(n*float64(tasksPerJob)), "ms")
	return jobMS, nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// serverStep submits each spec in-process (no HTTP), one job at a time,
// and reads the job's own status: admission cost and the run time the
// server adds over the bare runtime. Jobs submitted one at a time never
// queue, so server.queue_wait_ms comes from the http step, which runs the
// workload's own load shape.
func serverStep(res *result, tr *tracer, in []ladderInput, nativeMS []float64, dir string) error {
	srv, err := server.Open(serverOptions(dir))
	if err != nil {
		return fmt.Errorf("server.Open: %w", err)
	}
	var submit, overhead []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, x := range in {
		root := tr.begin("server.job", x.job, -1)
		sp := tr.begin("server.submit", x.job, root)
		t0 := time.Now()
		j, err := srv.Submit(x.spec)
		submit = append(submit, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			tr.end(root)
			check(res, x, "server", nil, err)
			continue
		}
		sp = tr.begin("server.wait", x.job, root)
		<-j.Done()
		tr.end(sp)
		tr.end(root)
		st := j.Status(time.Now())
		overhead = append(overhead, st.RunMS-nativeMS[i])
		if st.State != server.StateDone {
			err = fmt.Errorf("job ended %s: %s", st.State, st.Error)
		}
		check(res, x, "server", st.Result, err)
	}
	runtime.ReadMemStats(&m1)
	srv.Close()
	walBytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	n := float64(len(in))
	res.set("server.submit_ms", percentile(submit, 50), "ms")
	res.set("server.overhead_ms", mean(overhead), "ms")
	res.set("server.wal_bytes_per_job", float64(walBytes)/n, "B")
	res.set("server.alloc_kb_per_job", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/n, "kB")
	return nil
}

// httpStep drives the specs over loopback HTTP with the workload's load
// shape (its clients, or its arrival rate), every spec twice: once traced,
// once not. The traced half gives the per-layer HTTP numbers; the ratio of
// the two halves' median latency is the tracing overhead. The log the step
// leaves is then replayed by restarts on copies of it.
func httpStep(res *result, tr *tracer, w *Workload, seed int64, in []ladderInput, work string, restarts int) error {
	dir := filepath.Join(work, "ladder-http")
	dep, err := openDeployment(dir)
	if err != nil {
		return err
	}
	refs := make([][]byte, len(in))
	specs := make([]server.JobSpec, len(in))
	for i, x := range in {
		specs[i], refs[i] = x.spec, x.ref
	}
	bodies, err := specBodies(specs)
	if err != nil {
		dep.Close()
		return err
	}
	gen := &generator{c: newClient(), base: dep.base, specs: bodies, tr: tr, halfTraced: true}
	ctx := context.Background()
	var outs []outcome
	if w.Loop == "open" {
		sched := w.schedule(seed, float64(2*len(in))/w.RatePerS+1, "ladder")
		outs = gen.openLoop(ctx, sched[:min(len(sched), 2*len(in))], time.Now(), "http")
	} else {
		outs = gen.closedLoop(ctx, w.Clients, 2*len(in), time.Time{}, "http")
	}
	gen.c.CloseIdleConnections()
	dep.Close()
	verify(outs, refs)
	res.count(outs)
	reportFailures(outs)

	var post, sseLag, queue, lag, tracedLat, plainLat []float64
	for _, o := range outs {
		lag = append(lag, ms(o.lag))
		if o.result == nil {
			continue // never reached done; a wrong result is counted by verify
		}
		queue = append(queue, o.queueMS)
		if !o.traced {
			plainLat = append(plainLat, ms(o.latency))
			continue
		}
		tracedLat = append(tracedLat, ms(o.latency))
		post = append(post, ms(o.post))
		sseLag = append(sseLag, ms(o.sseLag))
	}
	if len(tracedLat) == 0 || len(plainLat) == 0 {
		return fmt.Errorf("http step: no job completed")
	}
	res.set("http.post_ms", percentile(post, 50), "ms")
	res.set("http.sse_lag_ms", percentile(sseLag, 50), "ms")
	res.set("http.latency_p50_ms", percentile(tracedLat, 50), "ms")
	res.set("http.trace_overhead_ratio", percentile(tracedLat, 50)/percentile(plainLat, 50), "ratio")
	res.set("server.queue_wait_ms", mean(queue), "ms")
	res.set("loadgen.lag_p99_ms", percentile(lag, 99), "ms")
	restart, err := measureRestart(work, dir, restarts)
	if err != nil {
		return err
	}
	res.set("server.restart_ms", restart*1e3, "ms")
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
