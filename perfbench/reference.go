package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"cellmg/internal/native"
	"cellmg/internal/phylo"
	"cellmg/internal/server"
)

// analysisInputs rebuilds, outside the server, what a job spec asks for:
// the simulated alignment and the analysis options. It follows the
// documented meaning of the spec fields (simulate's default mean branch
// length, JC69, 4-category Gamma when gamma > 0, search overrides on top of
// phylo.DefaultSearchOptions), so a server that changes that meaning fails
// the correctness gate.
func analysisInputs(spec server.JobSpec) (*phylo.PatternAlignment, native.AnalysisOptions, error) {
	sim := spec.Simulate
	mean := sim.MeanBranchLength
	if mean <= 0 {
		mean = 0.08
	}
	_, aln, err := phylo.Simulate(phylo.SimulateOptions{
		Taxa: sim.Taxa, Length: sim.Length, Seed: sim.Seed, MeanBranchLength: mean,
	})
	if err != nil {
		return nil, native.AnalysisOptions{}, fmt.Errorf("simulate: %w", err)
	}
	data, err := phylo.Compress(aln)
	if err != nil {
		return nil, native.AnalysisOptions{}, fmt.Errorf("compress: %w", err)
	}
	rates := phylo.SingleRate()
	if spec.Gamma > 0 {
		if rates, err = phylo.DiscreteGamma(spec.Gamma, 4); err != nil {
			return nil, native.AnalysisOptions{}, err
		}
	}
	search := phylo.DefaultSearchOptions()
	if spec.Search.SmoothingRounds > 0 {
		search.SmoothingRounds = spec.Search.SmoothingRounds
	}
	if spec.Search.MaxRounds > 0 {
		search.MaxRounds = spec.Search.MaxRounds
	}
	if spec.Search.Epsilon > 0 {
		search.Epsilon = spec.Search.Epsilon
	}
	return data, native.AnalysisOptions{
		Inferences: spec.Inferences,
		Bootstraps: spec.Bootstraps,
		Search:     search,
		Seed:       spec.Seed,
		Model:      phylo.NewJC69(),
		Rates:      rates,
	}, nil
}

// encodeResult is the wire form of a result exactly as the server writes
// it inside a job status (json.Encoder with HTML escaping off).
func encodeResult(r *server.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// references computes the serial reference result of every spec: native
// RunAnalysis on a 1-worker EDTLP runtime, encoded as the server would. It
// runs before any timed window, one runtime per CPU.
func references(specs []server.JobSpec) ([][]byte, error) {
	out := make([][]byte, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt := native.New(native.Options{Workers: 1, Policy: native.EDTLP})
			defer rt.Close()
			for i := range next {
				out[i], errs[i] = reference(rt, specs[i])
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference for spec %d: %w", i, err)
		}
	}
	return out, nil
}

func reference(rt *native.Runtime, spec server.JobSpec) ([]byte, error) {
	data, opts, err := analysisInputs(spec)
	if err != nil {
		return nil, err
	}
	res, err := native.RunAnalysis(rt, data, opts)
	if err != nil {
		return nil, err
	}
	return encodeResult(server.ResultFromAnalysis(res))
}
