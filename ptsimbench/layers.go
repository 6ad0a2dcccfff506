package main

import (
	"sync"
	"time"

	"repro/internal/compiler"
)

// layerSpec is one per-layer metric of the traced run. Every workload
// reports all of them; a metric for a layer the workload does not reach
// reads 0.
type layerSpec struct{ name, unit, better string }

var layerSpecs = []layerSpec{
	// Compiler passes: the set-up compile on cnn-multicore and llm-serve,
	// the cold compiles of never-seen keys on fleet-mix.
	{"compiler.lower_ms", "ms", "lower"},
	{"compiler.codegen_ms", "ms", "lower"},
	{"compiler.measure_ms", "ms", "lower"},
	{"compiler.emit_ms", "ms", "lower"},
	{"compiler.kernels_measured", "count", "lower"},
	{"compiler.latency_hit_ratio", "ratio", "higher"},
	{"compiler.cpu_share", "ratio", "lower"},
	// Engine: median host time of one engine run, and CPU self-time shares.
	{"togsim.run_ms", "ms", "lower"},
	{"sim.queue_cpu_share", "ratio", "lower"},
	{"togsim.fabric_cpu_share", "ratio", "lower"},
	{"togsim.core_cpu_share", "ratio", "lower"},
	{"dram.cpu_share", "ratio", "lower"},
	{"noc.cpu_share", "ratio", "lower"},
	// Simulated work per op: exact counts a host-only change must not move.
	{"dram.requests", "count", "lower"},
	{"dram.row_hit_ratio", "ratio", "higher"},
	{"noc.flits", "count", "lower"},
	{"topo.link_flits", "count", "lower"},
	{"topo.cpu_share", "ratio", "lower"},
	// Go runtime over the traced phase.
	{"runtime.alloc_bytes_per_sim_cycle", "B/cycle", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	// Serving loop, per trace.
	{"serve.iterations", "count", "lower"},
	{"serve.compile_ms", "ms", "lower"},
	{"serve.compile_hit_ratio", "ratio", "higher"},
	{"serve.ms_per_iteration", "ms", "lower"},
	{"serve.ms_per_token", "ms", "lower"},
	// Service members, per job.
	{"service.queue_wait_ms", "ms", "lower"},
	{"service.compile_ms", "ms", "lower"},
	{"service.sim_ms", "ms", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"cache.store_hit_ratio", "ratio", "higher"},
	{"service.cpu_share", "ratio", "lower"},
	// Fleet hop: job latency minus compile, simulation and member queue wait.
	{"fleet.hop_p50_ms", "ms", "lower"},
	{"fleet.hop_p90_ms", "ms", "lower"},
	{"fleet.attempts_per_job", "count", "lower"},
	{"fleet.cpu_share", "ratio", "lower"},
	{"net.cpu_share", "ratio", "lower"},
	// Host speed: the two reference kernels' chunk times before the run.
	{"host.loop_ms", "ms", "lower"},
	{"host.chase_ms", "ms", "lower"},
	// Correctness gate and tracing overhead.
	{"failed_ratio", "ratio", "lower"},
	{"trace.untraced_sim_cycles_per_s", "cycles/s", "higher"},
	{"trace.traced_sim_cycles_per_s", "cycles/s", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// setZeroLayers sets every per-layer metric to 0, so a workload only fills
// in the layers it reaches.
func setZeroLayers(m map[string]float64) {
	for _, l := range layerSpecs {
		m[l.name] = 0
	}
}

// compileStats accumulates compiler pass times and latency-cache counters
// over the compilers attached to it.
type compileStats struct {
	mu      sync.Mutex
	phaseMs map[compiler.Phase]float64
	comps   []*compiler.Compiler
}

func newCompileStats() *compileStats {
	return &compileStats{phaseMs: map[compiler.Phase]float64{}}
}

// attach installs a PhaseHook on c that accumulates pass times and records
// each pass as a span under parent (ending when the hook fires).
func (s *compileStats) attach(c *compiler.Compiler, tr *tracer, parent int64) {
	s.mu.Lock()
	s.comps = append(s.comps, c)
	s.mu.Unlock()
	c.PhaseHook = func(ph compiler.Phase, d time.Duration) {
		end := time.Now()
		tr.record(tr.newID(), parent, 0, "compiler."+string(ph), end.Add(-d), end, nil)
		s.mu.Lock()
		s.phaseMs[ph] += float64(d) / 1e6
		s.mu.Unlock()
	}
}

func (s *compileStats) metrics(m map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ph := range compiler.Phases() {
		m["compiler."+string(ph)+"_ms"] = s.phaseMs[ph]
	}
	var measured, lookups int64
	for _, c := range s.comps {
		st := c.Stats()
		measured += st.MeasureCount
		lookups += st.SigLookups
	}
	m["compiler.kernels_measured"] = float64(measured)
	m["compiler.latency_hit_ratio"] = 1 - ratio(float64(measured), float64(lookups))
	if lookups == 0 {
		m["compiler.latency_hit_ratio"] = 0
	}
}
