package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"cellmg/internal/server"
)

//go:embed config.json
var configJSON []byte

// Config is config.json: the workload definitions and the constants the
// benchmark fixes (seeds, repetition counts, the generator validity limit).
// BENCHMARK.json holds only what the benchmark contract allows; everything a
// workload needs to be reproduced lives here. config.json also records
// fields the program does not read: the held-out seed, each workload's
// stressed and bypassed layers, and for every per-layer metric the
// end-to-end metric it should move on which workload.
type Config struct {
	DefaultSeed int64 `json:"default_seed"`
	// SetupCycles and RestartCopies are how many cold Open→ready cycles the
	// two set-up metrics take their median over; setup_s takes its cycles
	// in three batches spread over the run.
	SetupCycles   int `json:"setup_cycles"`
	RestartCopies int `json:"restart_copies"`
	// MaxLagShare invalidates an open-loop run whose generator ran late by
	// more than this share of the workload's latency limit (at p99).
	MaxLagShare float64               `json:"max_lag_share"`
	Workloads   []Workload            `json:"workloads"`
	PerLayer    map[string]LayerClaim `json:"per_layer"`
}

// LayerClaim is one per-layer metric's entry; the ladder checks that it
// measures exactly the claimed metrics, in the claimed units.
type LayerClaim struct {
	Unit string `json:"unit"`
}

// Workload is one traffic mix; its one-line rationale is its "why" in
// BENCHMARK.json.
type Workload struct {
	Name string `json:"name"`
	// Loop is "closed" (Clients callers, each waiting for its job) or
	// "open" (arrivals at RatePerS whatever the server does).
	Loop     string  `json:"loop"`
	Clients  int     `json:"clients"`
	RatePerS float64 `json:"rate_per_s"`
	// Pool is the number of distinct job specs the run cycles through;
	// Warmup jobs run before the measured window and are not timed.
	Pool   int `json:"pool"`
	Warmup int `json:"warmup"`
	// JobsPerS is a closed loop's nominal completion rate on the reference
	// host; it sizes the fixed number of jobs a run does (closedJobs).
	JobsPerS float64 `json:"jobs_per_s"`
	// TailPercentile is fixed per workload, so both sides of a comparison
	// report the same one (README.md gives each workload's choice).
	TailPercentile float64 `json:"tail_percentile"`
	LatencyLimitMS float64 `json:"latency_limit_ms"`
	// LadderJobs is how many jobs each step of the traced layer ladder runs.
	LadderJobs int      `json:"ladder_jobs"`
	Job        JobShape `json:"job"`
}

// JobShape is the fixed part of every spec in a workload's pool; the seed
// varies the simulated alignment and the analysis seed.
type JobShape struct {
	Taxa       int               `json:"taxa"`
	Sites      int               `json:"sites"`
	Gamma      float64           `json:"gamma"`
	Inferences int               `json:"inferences"`
	Bootstraps int               `json:"bootstraps"`
	Priority   string            `json:"priority"`
	Tenants    []string          `json:"tenants"`
	Search     server.SearchSpec `json:"search"`
}

func loadConfig() (*Config, error) {
	var c Config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return nil, fmt.Errorf("config.json: %w", err)
	}
	return &c, nil
}

func (c *Config) workload(name string) (*Workload, error) {
	for i := range c.Workloads {
		if c.Workloads[i].Name == name {
			return &c.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rng returns a generator that depends only on the seed, the workload and
// the purpose, so pools and schedules never share a stream.
func (w *Workload) rng(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d", w.Name, purpose, seed)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// specPool derives the workload's job specs from the seed alone.
func (w *Workload) specPool(seed int64) []server.JobSpec {
	rng := w.rng(seed, "pool")
	out := make([]server.JobSpec, w.Pool)
	for i := range out {
		out[i] = server.JobSpec{
			Tenant:     w.Job.Tenants[i%len(w.Job.Tenants)],
			Priority:   w.Job.Priority,
			Inferences: w.Job.Inferences,
			Bootstraps: w.Job.Bootstraps,
			Seed:       rng.Int63n(1 << 31),
			Gamma:      w.Job.Gamma,
			Search:     w.Job.Search,
			Simulate: &server.SimulateSpec{
				Taxa:   w.Job.Taxa,
				Length: w.Job.Sites,
				Seed:   rng.Int63n(1 << 31),
			},
		}
	}
	return out
}

// closedJobs is how many jobs a closed-loop run does for a window of
// seconds: the nominal rate times the window, so that every run does the
// same work however fast the host happens to be. Up to Pool jobs are all
// distinct specs; past that the count is a whole number of pool cycles, so
// every spec weighs the same in the run's statistics.
func (w *Workload) closedJobs(seconds float64) int {
	n := max(1, int(math.Round(seconds*w.JobsPerS)))
	if n > w.Pool {
		n = w.Pool * int(math.Round(float64(n)/float64(w.Pool)))
	}
	return n
}

// tasks is the number of searches one job runs.
func (w *Workload) tasks() int { return max(w.Job.Inferences, 1) + w.Job.Bootstraps }

// schedule derives the open-loop arrival times (seconds from the start of
// the window) from the seed: one arrival per 1/rate slot at a uniformly
// jittered offset inside the slot. The
// jitter lets arrivals bunch (two may land back to back) without the
// unbounded bursts of a Poisson process, whose tail would be set by the
// seed's worst burst rather than by the server.
func (w *Workload) schedule(seed int64, seconds float64, purpose string) []float64 {
	rng := w.rng(seed, purpose)
	slot := 1 / w.RatePerS
	var out []float64
	for i := 0; ; i++ {
		due := (float64(i) + rng.Float64()) * slot
		if due >= seconds {
			return out
		}
		out = append(out, due)
	}
}
