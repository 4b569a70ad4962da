package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// outcome is one job driven over HTTP.
type outcome struct {
	spec    int
	lag     time.Duration // how late the generator sent it
	latency time.Duration // due → SSE done event
	done    time.Time     // arrival of the SSE done event
	post    time.Duration // POST round trip
	sseLag  time.Duration // SSE done arrival − JobStatus.FinishedAt
	queueMS float64       // JobStatus.queue_wait_ms
	traced  bool          // spans were recorded for it
	result  []byte        // the done job's result JSON, as served
	// ok and mismatch are set by verify: ok means done with the reference
	// result, mismatch means done with a different one.
	ok       bool
	mismatch bool
	err      string
}

// verify byte-compares every done job's result with its spec's reference.
func verify(outs []outcome, refs [][]byte) {
	for k := range outs {
		o := &outs[k]
		switch {
		case o.result == nil:
		case bytes.Equal(o.result, refs[o.spec]):
			o.ok = true
		default:
			o.mismatch = true
			o.err = "result differs from the serial reference"
		}
	}
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads. Result
// stays raw: the gate compares its bytes, not its decoded value.
type jobStatus struct {
	ID          string          `json:"id"`
	FinishedAt  *time.Time      `json:"finished_at"`
	QueueWaitMS float64         `json:"queue_wait_ms"`
	Result      json.RawMessage `json:"result"`
}

// generator is the load generator: it runs jobs against one deployment.
type generator struct {
	c     *http.Client
	base  string
	specs [][]byte // JSON bodies of the pool specs
	tr    *tracer
	// halfTraced runs every spec twice, once with spans and once without,
	// alternating which copy goes first, so the traced run can measure its
	// own overhead.
	halfTraced bool
}

// job maps the n-th job of a loop to its pool spec and its tracer.
func (g *generator) job(n int) (int, *tracer) {
	if !g.halfTraced {
		return n % len(g.specs), g.tr
	}
	spec := (n / 2) % len(g.specs)
	if n%2 == (n/2)%2 {
		return spec, g.tr
	}
	return spec, nil
}

// run submits the n-th job, waits for its SSE terminal event and fetches
// its result for verify. due is when the job was due to be sent.
func (g *generator) run(ctx context.Context, n int, due time.Time, job string) outcome {
	i, tr := g.job(n)
	o := outcome{spec: i, traced: tr != nil}
	root := tr.begin("http.job", job, -1)
	defer tr.end(root)

	sent := time.Now()
	o.lag = sent.Sub(due)
	sp := tr.begin("http.post", job, root)
	var st jobStatus
	code, err := g.do(ctx, http.MethodPost, "/v1/jobs", g.specs[i], &st)
	o.post = time.Since(sent)
	tr.end(sp)
	if err != nil || code != http.StatusAccepted {
		o.err = fmt.Sprintf("submit: status %d: %v", code, err)
		return o
	}

	sp = tr.begin("http.sse", job, root)
	state, err := g.await(ctx, st.ID)
	o.done = time.Now()
	o.latency = o.done.Sub(due)
	tr.end(sp)
	if err != nil {
		o.err = "events: " + err.Error()
		return o
	}
	if state != "done" {
		o.err = "job ended " + state
		return o
	}

	sp = tr.begin("http.get", job, root)
	code, err = g.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil, &st)
	tr.end(sp)
	if err != nil || code != http.StatusOK {
		o.err = fmt.Sprintf("get: status %d: %v", code, err)
		return o
	}
	if st.FinishedAt != nil {
		o.sseLag = o.done.Sub(*st.FinishedAt)
	}
	o.queueMS = st.QueueWaitMS
	o.result = st.Result
	return o
}

func (g *generator) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, g.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := g.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s", bytes.TrimSpace(b))
	}
	return resp.StatusCode, json.Unmarshal(b, out)
}

// await reads the job's SSE stream until its terminal event and returns
// the event type. Completion is taken from the stream alone: no polling.
func (g *generator) await(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := g.c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		ev, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch ev {
		case "done", "failed", "cancelled":
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("stream ended without a terminal event")
}

// closedLoop runs clients callers, each sending its next job when the
// previous one completes. It stops handing out jobs after limit jobs (0: no
// limit) or once the window closes at until (zero: never); jobs in flight
// at the close run to completion.
func (g *generator) closedLoop(ctx context.Context, clients, limit int, until time.Time, label string) []outcome {
	var mu sync.Mutex
	var out []outcome
	next := 0
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if (limit > 0 && next >= limit) || (!until.IsZero() && !time.Now().Before(until)) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n, ok := take()
				if !ok {
					return
				}
				o := g.run(ctx, n, time.Now(), fmt.Sprintf("%s-%04d", label, n))
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// openLoop sends each arrival at its due time whatever the server is
// doing, and times every job from its due time, so a stall is charged to
// every job queued behind it.
func (g *generator) openLoop(ctx context.Context, sched []float64, start time.Time, label string) []outcome {
	out := make([]outcome, len(sched))
	var wg sync.WaitGroup
	for n, at := range sched {
		due := start.Add(time.Duration(at * float64(time.Second)))
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[n] = g.run(ctx, n, due, fmt.Sprintf("%s-%04d", label, n))
		}()
	}
	wg.Wait()
	return out
}
