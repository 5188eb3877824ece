package main

import (
	"math"

	"freecursive/internal/core"
)

// workload is one traffic mix and the stack that serves it. Why each
// exists, and what it is predicted to show, is in README.md.
type workload struct {
	name    string
	gen     genConfig
	backend string
	mem     memKind
	shards  int
	served  bool // behind the frame server, driven through client.Binary
	// rated is the offered rate (ops/s) at which latency is reported, at
	// most a third of the capacity measured when the benchmark was
	// written (README.md says why not half).
	rated float64
	// The capacity ladder is rungs offered rates lo·ladderStep^k,
	// k < rungs; a rung passes when p90 latency stays under limitMs and
	// the backlog through the last part of the sends is within what that
	// latency allows.
	lo      float64
	rungs   int
	limitMs float64
}

// ladderStep is the ratio between neighbouring capacity rungs.
const ladderStep = 1.04

var workloads = []*workload{
	{
		name:    "local-uniform",
		shards:  2,
		gen:     genConfig{Blocks: blocks, WriteFrac: 0.5},
		backend: core.BackendPath,
		mem:     memMap,
		rated:   3000,
		lo:      5000,
		rungs:   40,
		limitMs: 10,
	},
	{
		name:    "served-zipf",
		shards:  2,
		gen:     genConfig{Blocks: blocks, WriteFrac: 0.1, ZipfS: 1.2},
		backend: core.BackendPath,
		mem:     memMap,
		served:  true,
		rated:   6000,
		lo:      8000,
		rungs:   40,
		limitMs: 15,
	},
	{
		name:    "remote-rtt",
		shards:  2,
		gen:     genConfig{Blocks: blocks, WriteFrac: 0.5},
		backend: core.BackendPath,
		mem:     memRemote,
		rated:   250,
		lo:      250,
		rungs:   48,
		limitMs: 30,
	},
	{
		name:    "durable-bhoram",
		shards:  1,
		gen:     genConfig{Blocks: 1 << 16, WriteFrac: 0.9},
		backend: core.BackendBucketHash,
		mem:     memFile,
		rated:   1000,
		lo:      6000,
		rungs:   31,
		limitMs: 50,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ladder returns the capacity ladder's offered rates, ascending.
func (w *workload) ladder() []float64 {
	out := make([]float64, w.rungs)
	for k := range out {
		out[k] = math.Round(w.lo * math.Pow(ladderStep, float64(k)))
	}
	return out
}
