package main

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/graph"
	"repro/internal/npu"
	"repro/internal/obs/report"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/service/modelzoo"
	"repro/internal/togsim"
)

// llmConfig is the llm-serve workload: one seeded Poisson trace replayed
// through serve.Run on the content-addressed compile cache ptserve uses.
type llmConfig struct {
	Model    string
	Requests int
	Prompt   int
	Output   int
	Rate     float64 // arrivals per simulated second
	MaxBatch int
	KVBlock  int
	Seed     int64
}

// defaultLLM keeps arrivals dense (20000/s) so every seed admits the same
// batches: at 2000/s, seeds 1-12 gave 30 to 50 decode steps per trace, and
// host time per trace moved by up to 35% with the seed alone.
func defaultLLM(seed int64) llmConfig {
	return llmConfig{Model: "decoder-small", Requests: 8, Prompt: 64, Output: 16,
		Rate: 20000, MaxBatch: 4, KVBlock: 64, Seed: seed}
}

// trace is the op's input: the same seed gives the same arrivals.
func (c llmConfig) trace(freqMHz int) []serve.Request {
	return serve.PoissonTrace(c.Seed, c.Requests, c.Rate, freqMHz, c.Prompt, c.Output)
}

type llmWorkload struct {
	cfg   llmConfig
	npu   npu.Config
	reqs  []serve.Request
	want  serveExpect
	cache *service.Cache
	// compile holds the last set-up's warm-up compiles.
	compile *compileStats

	mu                        sync.Mutex
	first                     *report.ServeReport // canonical report of the first op
	runMs                     []float64           // per iteration, between compile calls
	traces, iters, tokens     int64
	traceMs, compileMs        float64
	compileCalls, compileHits int64
}

func newLLM(cfg llmConfig, exp *expectedTable) (*llmWorkload, error) {
	w := &llmWorkload{cfg: cfg, npu: npu.TPUv3Config()}
	w.reqs = cfg.trace(w.npu.FreqMHz)
	want, err := replayServe(cfg, w.reqs, func(s modelzoo.Spec) (int64, error) {
		c, ok := exp.Iterations[specLabel(s)]
		if !ok {
			return 0, fmt.Errorf("llm-serve: no expected cycles for iteration %q", specLabel(s))
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	w.want = want
	return w, nil
}

func (w *llmWorkload) inputs() string {
	return fmt.Sprintf("model=%s requests=%d prompt=%d gen=%d rate=%g/s max_batch=%d kv_block=%d trace_seed=%d npu=tpuv3 net=sn clients=1 iterations=%d",
		w.cfg.Model, w.cfg.Requests, w.cfg.Prompt, w.cfg.Output, w.cfg.Rate, w.cfg.MaxBatch, w.cfg.KVBlock, w.cfg.Seed,
		w.want.prefills+w.want.decodeSteps)
}

func (w *llmWorkload) clients() int { return 1 }

func (w *llmWorkload) compileFn(cache *service.Cache) serve.CompileFn {
	opts := compiler.DefaultOptions()
	return func(spec modelzoo.Spec) (*compiler.Compiled, bool, error) {
		return cache.Compile(service.CompileKey(spec, w.npu, opts), w.npu, opts, func() (*graph.Graph, error) {
			return modelzoo.BuildFor(spec, w.npu.Mem)
		})
	}
}

// setup builds a fresh compile cache and warms it with every iteration
// shape the trace will run, so timed ops only hit the cache.
func (w *llmWorkload) setup(tr *tracer) error {
	cache := service.NewCache()
	stats := newCompileStats()
	setupID := tr.newID()
	cache.SetCompilerHook(func(c *compiler.Compiler) { stats.attach(c, tr, setupID) })
	compile := w.compileFn(cache)
	t0 := time.Now()
	for _, s := range w.want.shapes {
		if _, _, err := compile(s); err != nil {
			return fmt.Errorf("warm-up compile %s: %w", specLabel(s), err)
		}
	}
	tr.record(setupID, 0, 0, "setup.warmup", t0, time.Now(), nil)
	w.cache, w.compile = cache, stats
	return nil
}

func (w *llmWorkload) op(_ int, tr *tracer) opResult {
	opID := tr.newID()
	inner := w.compileFn(w.cache)
	var (
		calls, hits int64
		compileMs   float64
		runMs       []float64
		steps       []step
		lastEnd     time.Time // end of the previous compile call
		iterStart   time.Time // start of the current iteration's compile call
		iterShape   string
	)
	// Each iteration calls Compile and then runs a fresh engine, so the
	// time from one compile's return to the next call is the previous
	// iteration's engine run, and from one call to the next the whole
	// iteration.
	compile := func(s modelzoo.Spec) (*compiler.Compiled, bool, error) {
		t0 := time.Now()
		if !lastEnd.IsZero() {
			runMs = append(runMs, float64(t0.Sub(lastEnd))/1e6)
			tr.record(tr.newID(), opID, opID, "serve.iteration", lastEnd, t0, nil)
			steps = append(steps, step{float64(t0.Sub(iterStart)) / 1e6, iterShape})
		}
		iterStart, iterShape = t0, specLabel(s)
		comp, hit, err := inner(s)
		lastEnd = time.Now()
		tr.record(tr.newID(), opID, opID, "serve.Compile", t0, lastEnd, nil)
		calls++
		if hit {
			hits++
		}
		compileMs += float64(lastEnd.Sub(t0)) / 1e6
		return comp, hit, err
	}
	cfg := serve.Config{Model: w.cfg.Model, NPU: w.npu, Net: togsim.SimpleNet,
		MaxBatch: w.cfg.MaxBatch, KVBlock: w.cfg.KVBlock, Compile: compile}
	t0 := time.Now()
	rep, err := serve.Run(cfg, w.reqs)
	end := time.Now()
	if !lastEnd.IsZero() {
		runMs = append(runMs, float64(end.Sub(lastEnd))/1e6)
		tr.record(tr.newID(), opID, opID, "serve.iteration", lastEnd, end, nil)
		steps = append(steps, step{float64(end.Sub(iterStart)) / 1e6, iterShape})
	}
	tr.record(opID, 0, opID, "serve.Run", t0, end, map[string]float64{"cycles": float64(rep.Cycles)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "llm-serve:", err)
		return opResult{failed: true}
	}
	failed := w.check(rep)

	w.mu.Lock()
	w.runMs = append(w.runMs, runMs...)
	w.traces++
	w.iters += rep.PrefillRuns + rep.DecodeSteps
	w.tokens += rep.TokensOut
	w.traceMs += float64(end.Sub(t0)) / 1e6
	w.compileMs += compileMs
	w.compileCalls += calls
	w.compileHits += hits
	w.mu.Unlock()
	return opResult{cycles: rep.Cycles, failed: failed, steps: steps}
}

// rates: a job is one serving iteration (a prefill or a decode step).
// Every trace of a run is the same, so one trace's host time is rebuilt
// from its iterations, each costed at the median of all iterations of its
// shape in the phase.
func (w *llmWorkload) rates(ops []opSample) rates {
	byShape := map[string][]float64{}
	var lat []float64
	var first opResult
	for _, o := range ops {
		if first.steps == nil && !o.res.failed {
			first = o.res
		}
		for _, s := range o.res.steps {
			byShape[s.shape] = append(byShape[s.shape], s.ms)
			lat = append(lat, s.ms)
		}
	}
	var traceMs float64
	for _, s := range first.steps {
		traceMs += median(byShape[s.shape])
	}
	secs := traceMs / 1e3
	return rates{cyclesPerS: ratio(float64(first.cycles), secs),
		jobsPerS: ratio(float64(len(first.steps)), secs), latencies: lat}
}

// check compares the report with the reference replay, and every later
// report of the run with the first one field for field.
func (w *llmWorkload) check(rep report.ServeReport) bool {
	got := serveExpect{cycles: rep.Cycles, prefills: rep.PrefillRuns, decodeSteps: rep.DecodeSteps,
		tokens: rep.TokensOut, requests: int64(rep.Requests)}
	want := w.want
	want.shapes = nil
	if !reflect.DeepEqual(got, want) {
		fmt.Fprintf(os.Stderr, "llm-serve: report %+v, expected %+v\n", got, want)
		return true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.first == nil {
		w.first = &rep
		return false
	}
	if !reflect.DeepEqual(rep, *w.first) {
		fmt.Fprintln(os.Stderr, "llm-serve: report differs from the run's first report of the same trace")
		return true
	}
	return false
}

func (w *llmWorkload) phaseFailures() int { return 0 }

func (w *llmWorkload) resetLayers() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.runMs = nil
	w.traces, w.iters, w.tokens = 0, 0, 0
	w.traceMs, w.compileMs = 0, 0
	w.compileCalls, w.compileHits = 0, 0
}

func (w *llmWorkload) layers(m map[string]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	setZeroLayers(m)
	w.compile.metrics(m)
	m["togsim.run_ms"] = median(w.runMs)
	m["serve.iterations"] = ratio(float64(w.iters), float64(w.traces))
	m["serve.compile_ms"] = ratio(w.compileMs, float64(w.traces))
	m["serve.compile_hit_ratio"] = ratio(float64(w.compileHits), float64(w.compileCalls))
	m["serve.ms_per_iteration"] = ratio(w.traceMs, float64(w.iters))
	m["serve.ms_per_token"] = ratio(w.traceMs, float64(w.tokens))
}

func (w *llmWorkload) close() {}

// serveExpect is what the reference replay predicts for one trace.
type serveExpect struct {
	cycles, prefills, decodeSteps, tokens, requests int64
	shapes                                          []modelzoo.Spec // distinct iteration shapes, in first-use order
}

// replayServe is the benchmark's reference for serve.Run: the same
// iteration-level continuous batching (admit arrived requests up to
// MaxBatch, each with a batch-1 prefill; otherwise one decode step over
// the batch at the KV length padded to KVBlock), costed from a table of
// per-iteration cycles instead of simulating.
func replayServe(cfg llmConfig, reqs []serve.Request, cycles func(modelzoo.Spec) (int64, error)) (serveExpect, error) {
	var e serveExpect
	seen := map[string]bool{}
	iterate := func(s modelzoo.Spec) (int64, error) {
		if l := specLabel(s); !seen[l] {
			seen[l] = true
			e.shapes = append(e.shapes, s)
		}
		return cycles(s)
	}
	type state struct{ prompt, generated, output int }
	waiting := append([]serve.Request(nil), reqs...)
	sort.SliceStable(waiting, func(i, j int) bool {
		if waiting[i].Arrival != waiting[j].Arrival {
			return waiting[i].Arrival < waiting[j].Arrival
		}
		return waiting[i].ID < waiting[j].ID
	})
	var running []*state
	var now int64
	for len(waiting) > 0 || len(running) > 0 {
		if len(running) == 0 && waiting[0].Arrival > now {
			now = waiting[0].Arrival
		}
		admitted := false
		for len(waiting) > 0 && len(running) < cfg.MaxBatch && waiting[0].Arrival <= now {
			r := waiting[0]
			waiting = waiting[1:]
			c, err := iterate(modelzoo.Spec{Model: cfg.Model, Batch: 1, Ctx: r.Prompt, Prefill: true})
			if err != nil {
				return e, err
			}
			now += c
			e.prefills++
			e.tokens++
			if r.Output > 1 {
				running = append(running, &state{r.Prompt, 1, r.Output})
			}
			admitted = true
		}
		if admitted || len(running) == 0 {
			continue
		}
		kv := 0
		for _, r := range running {
			kv = max(kv, r.prompt+r.generated)
		}
		kv = (kv + cfg.KVBlock - 1) / cfg.KVBlock * cfg.KVBlock
		c, err := iterate(modelzoo.Spec{Model: cfg.Model, Batch: len(running), Ctx: kv})
		if err != nil {
			return e, err
		}
		now += c
		e.decodeSteps++
		keep := running[:0]
		for _, r := range running {
			r.generated++
			e.tokens++
			if r.generated < r.output {
				keep = append(keep, r)
			}
		}
		running = keep
	}
	e.cycles = now
	e.requests = int64(len(reqs))
	return e, nil
}
