// Command ptsimbench is the repository's speed benchmark: it runs one of
// three seeded workloads in-process through the simulator's public APIs,
// checks every simulated result against its expected value, and prints
// each metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash ptsimbench/run.sh --workload cnn-multicore --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// half the time untraced and half traced (spans around every layer call
// plus a CPU profile) and reports the per-layer metrics and the tracing
// overhead. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and only the last set-up is kept for the timed phase.
const setupReps = 5

// opResult is what one op reports back to the harness; the harness times
// the op itself.
type opResult struct {
	cycles int64
	// failed marks an op that errored, was refused, or whose simulated
	// result differs from its expected value.
	failed bool
	// exhausted reports that the workload's generated input list ran out;
	// no op was attempted.
	exhausted bool
	// steps are the jobs inside an op that holds several (a serving
	// trace's iterations); nil when the op is itself one job.
	steps []step
	// group is the op's place in a fixed-composition group of inputs (the
	// fleet job list's block), for workloads that have one.
	group int
}

// step is one job inside an op: its host latency and its shape, the key
// under which like jobs are compared.
type step struct {
	ms    float64
	shape string
}

// opSample is one attempted op as the harness timed it.
type opSample struct {
	ms  float64
	res opResult
}

// rates are a phase's end-to-end figures. Each workload derives them from
// medians over many short samples, not from totals over the phase: the
// host's speed changes from one stretch of seconds to the next, and a
// median shrugs off a stretch that covers less than half of the samples.
type rates struct {
	cyclesPerS, jobsPerS float64
	// latencies are the job latencies (ms) the percentiles are taken over.
	latencies []float64
}

// workload is one benchmark traffic mix.
type workload interface {
	// inputs describes the generated inputs for the run header.
	inputs() string
	// setup builds the workload state, replacing any earlier set-up.
	setup(tr *tracer) error
	// clients is the closed-loop caller count.
	clients() int
	// rates derives the end-to-end figures from one phase's ops.
	rates(ops []opSample) rates
	// op runs one unit of work for the given client.
	op(client int, tr *tracer) opResult
	// phaseFailures counts failures found only after a phase, beyond the
	// ops that failed.
	phaseFailures() int
	// resetLayers clears the per-layer accumulators before the traced phase.
	resetLayers()
	// layers sets every per-layer metric the workload measures (over the
	// traced phase) in m.
	layers(m map[string]float64)
	close()
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // where a traced run writes its spans
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build/trace", "directory for the traced run's span file")
	flag.Parse()
	o.trace = trace == 1
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptsimbench:", err)
		os.Exit(1)
	}
	w, err := newWorkload(o.workload, o.seed, exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptsimbench:", err)
		os.Exit(2)
	}
	res, err := run(o, w, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptsimbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptsimbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string { return []string{"cnn-multicore", "llm-serve", "fleet-mix"} }

func newWorkload(name string, seed int64, exp *expectedTable) (workload, error) {
	switch name {
	case "cnn-multicore":
		return newCNN(defaultCNN(), exp)
	case "llm-serve":
		return newLLM(defaultLLM(seed), exp)
	case "fleet-mix":
		return newFleet(defaultFleet(seed), exp)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

// phase is one timed stretch of closed-loop ops.
type phase struct {
	wall      time.Duration
	ops       []opSample // one per attempted op
	cycles    int64
	attempted int
	failed    int
}

// runPhase drives w's clients back to back until the deadline or the end
// of the input list. Every client attempts at least one op, and starts
// another only while half its last op's time still fits before the
// deadline, so a phase of long ops ends within half an op of it.
func runPhase(w workload, seconds float64, tr *tracer) phase {
	var (
		mu sync.Mutex
		p  phase
		wg sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var last time.Duration
			for first := true; first || time.Now().Add(last/2).Before(deadline); first = false {
				t0 := time.Now()
				r := w.op(c, tr)
				if r.exhausted {
					return
				}
				last = time.Since(t0)
				mu.Lock()
				p.ops = append(p.ops, opSample{ms: float64(last) / 1e6, res: r})
				p.cycles += r.cycles
				p.attempted++
				if r.failed {
					p.failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// run sets w up, measures it, and returns the result line. Human-readable
// lines (header, metrics, notes) go to out.
func run(o options, w workload, out io.Writer) (result, error) {
	start := time.Now()
	printHeader(out, o, w)
	tr := newTracer(o.trace)
	defer w.close()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(tr); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	before := sampleHost()
	// Drop the earlier set-ups' garbage and the host sample's, so the
	// timed phase starts from the kept set-up alone.
	runtime.GC()
	debug.FreeOSMemory()
	fmt.Fprintf(out, "setup: %d reps and a host sample, %.3f s from start to first timed op\n",
		setupReps, time.Since(start).Seconds())

	m := map[string]metric{}
	var attempted, failed int
	if !o.trace {
		tr.setActive(false)
		rss := sampleRSS()
		p := runPhase(w, o.seconds, tr)
		rssP90 := rss.stop()
		host := before.merge(sampleHost())
		attempted, failed = p.attempted, p.failed+w.phaseFailures()
		secs := p.wall.Seconds()
		r := w.rates(p.ops)
		raw := map[string]float64{
			"setup_s":          median(setups),
			"sim_cycles_per_s": r.cyclesPerS,
			"jobs_per_s":       r.jobsPerS,
			"job_p50_ms":       median(r.latencies),
			"job_p90_ms":       percentile(r.latencies, 90),
		}
		scale := host.scale()
		m["setup_s"] = metric{raw["setup_s"] / scale, "s"}
		m["sim_cycles_per_s"] = metric{raw["sim_cycles_per_s"] * scale, "cycles/s"}
		m["jobs_per_s"] = metric{raw["jobs_per_s"] * scale, "1/s"}
		m["job_p50_ms"] = metric{raw["job_p50_ms"] / scale, "ms"}
		m["job_p90_ms"] = metric{raw["job_p90_ms"] / scale, "ms"}
		m["rss_p90_mb"] = metric{rssP90, "MB"}
		fmt.Fprintf(out, "host speed: loop %.4g ms a chunk (reference %.4g), chase %.4g ms a chunk (reference %.4g); timings are scaled by %.4g\n",
			median(host.loopMs), refLoopMs, median(host.chaseMs), refChaseMs, scale)
		for _, k := range []string{"setup_s", "sim_cycles_per_s", "jobs_per_s", "job_p50_ms", "job_p90_ms"} {
			fmt.Fprintf(out, "as measured: %-20s %14.6g %s\n", k, raw[k], m[k].Unit)
		}
		fmt.Fprintf(out, "timed phase: %d ops in %.2f s (%.4g sim cycles/s over the whole phase), %d failed (failed_ratio %.4g); job percentiles over %d samples\n",
			p.attempted, secs, float64(p.cycles)/secs, failed, ratio(float64(failed), float64(p.attempted)), len(r.latencies))
	} else {
		// Untraced first half, traced second half: the difference between
		// their simulation rates is the tracing overhead.
		tr.setActive(false)
		plain := runPhase(w, o.seconds/2, tr)
		w.resetLayers()
		tr.setActive(true)
		snap := readRuntime()
		if err := startProfile(); err != nil {
			return result{}, err
		}
		traced := runPhase(w, o.seconds/2, tr)
		shares, samples, err := stopProfile()
		if err != nil {
			return result{}, err
		}
		rt := readRuntime().since(snap)
		tr.setActive(false)
		attempted = plain.attempted + traced.attempted
		failed = plain.failed + traced.failed + w.phaseFailures()

		layers := map[string]float64{}
		w.layers(layers)
		for name, share := range shares {
			layers[name] = share
		}
		layers["runtime.gc_cpu_share"] = rt.gcShare()
		layers["runtime.alloc_bytes_per_sim_cycle"] = ratio(rt.allocBytes, float64(traced.cycles))
		layers["failed_ratio"] = ratio(float64(failed), float64(attempted))
		layers["host.loop_ms"] = median(before.loopMs)
		layers["host.chase_ms"] = median(before.chaseMs)
		plainRate := w.rates(plain.ops).cyclesPerS
		tracedRate := w.rates(traced.ops).cyclesPerS
		layers["trace.untraced_sim_cycles_per_s"] = plainRate
		layers["trace.traced_sim_cycles_per_s"] = tracedRate
		layers["trace.overhead_ratio"] = ratio(plainRate, tracedRate) - 1
		for _, l := range layerSpecs {
			v, ok := layers[l.name]
			if !ok {
				return result{}, fmt.Errorf("workload did not report per-layer metric %s", l.name)
			}
			m[l.name] = metric{v, l.unit}
		}
		fmt.Fprintf(out, "traced run: untraced %d ops in %.2f s, traced %d ops in %.2f s, %d CPU profile samples\n",
			plain.attempted, plain.wall.Seconds(), traced.attempted, traced.wall.Seconds(), samples)
		fmt.Fprintf(out, "tracing overhead: %.4g sim cycles/s untraced vs %.4g traced\n", plainRate, tracedRate)
		path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path, o.workload, o.seed); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", tr.len(), path)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "metric %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	if attempted == 0 {
		return result{}, fmt.Errorf("no op was attempted")
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// printHeader records the host fingerprint and the exact inputs, so two
// runs can be checked for comparability before their numbers are.
func printHeader(out io.Writer, o options, w workload) {
	fmt.Fprintf(out, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitRev())
	fmt.Fprintf(out, "run: workload=%s seed=%d seconds=%g trace=%v setup_reps=%d\n",
		o.workload, o.seed, o.seconds, o.trace, setupReps)
	fmt.Fprintf(out, "inputs: %s\n", w.inputs())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev is the VCS revision the Go toolchain stamped into the binary
// ("unknown" when built outside a git checkout).
func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// rssSampler records the resident set every 20 ms while it runs.
type rssSampler struct {
	stopc chan struct{}
	done  chan float64
}

// sampleRSS starts sampling; stop returns the 90th percentile of the
// samples in MB. The true peak of a garbage-collected heap depends on when
// collections happen to run and moved by ±9% between runs here; its 90th
// percentile moved by ±5%.
func sampleRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan float64)}
	go func() {
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		samples := []float64{rssMB()}
		for {
			select {
			case <-t.C:
				samples = append(samples, rssMB())
			case <-s.stopc:
				s.done <- percentile(samples, 90)
				return
			}
		}
	}()
	return s
}

func (s *rssSampler) stop() float64 {
	close(s.stopc)
	return <-s.done
}

// rssMB reads the process's current resident set from /proc/self/statm.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident float64
	fmt.Sscanf(string(data), "%g %g", &size, &resident)
	return resident * float64(os.Getpagesize()) / (1 << 20)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-th percentile (0 for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
