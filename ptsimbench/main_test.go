package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dram"
	"repro/internal/graph"
	"repro/internal/npu"
	"repro/internal/service"
	"repro/internal/service/modelzoo"
	"repro/internal/togsim"
)

var update = flag.Bool("update", false, "recompute every entry of expected.json from the simulator")

// Minimal-size variants of the three workloads, for tests.

func testCNN() cnnConfig { return cnnConfig{Spec: modelzoo.Spec{Model: "mlp", Batch: 1}, Cores: 2} }

func testLLM(seed int64) llmConfig {
	return llmConfig{Model: "decoder-tiny", Requests: 2, Prompt: 8, Output: 3,
		Rate: 20000, MaxBatch: 2, KVBlock: 16, Seed: seed}
}

func testFleet(seed int64) fleetConfig {
	tiny := service.JobSpec{Model: "decoder-tiny", Batch: 1, Ctx: 64}
	pkg2 := tiny
	pkg2.Topology, pkg2.Parallel = "pkg2", "tensor"
	return fleetConfig{Seed: seed, Members: 2, Workers: 1, Clients: 2, Blocks: 1,
		Warm: map[string][]service.JobSpec{
			"mlp":     {{Model: "mlp", Batch: 1}},
			"prefill": {{Model: "decoder-tiny", Ctx: 64, Prefill: true}},
			"gemm":    {{Model: "gemm", N: 128}},
			"decode":  {tiny},
			"pkg2":    {pkg2},
		},
		NovelN: []int{64, 68, 72, 76},
	}
}

func mustExpected(t *testing.T) *expectedTable {
	t.Helper()
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func testWorkloads(t *testing.T, seed int64, exp *expectedTable) map[string]workload {
	t.Helper()
	cnn, err := newCNN(testCNN(), exp)
	if err != nil {
		t.Fatal(err)
	}
	llm, err := newLLM(testLLM(seed), exp)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := newFleet(testFleet(seed), exp)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]workload{"cnn-multicore": cnn, "llm-serve": llm, "fleet-mix": fl}
}

func TestGeneratorsAreSeeded(t *testing.T) {
	jobs := func(seed int64) []service.JobSpec { return defaultFleet(seed).jobs() }
	if !reflect.DeepEqual(jobs(1), jobs(1)) {
		t.Error("fleet-mix: same seed gave different job lists")
	}
	if reflect.DeepEqual(jobs(1), jobs(2)) {
		t.Error("fleet-mix: different seeds gave the same job list")
	}
	freq := npu.TPUv3Config().FreqMHz
	trace := func(seed int64) any { return defaultLLM(seed).trace(freq) }
	if !reflect.DeepEqual(trace(1), trace(1)) {
		t.Error("llm-serve: same seed gave different traces")
	}
	if reflect.DeepEqual(trace(1), trace(2)) {
		t.Error("llm-serve: different seeds gave the same trace")
	}
}

// TestFleetMixShape pins the job list's composition: a fifth of the jobs
// carry a gemm size seen nowhere earlier in the list or in the warm set.
func TestFleetMixShape(t *testing.T) {
	cfg := defaultFleet(7)
	jobs := cfg.jobs()
	seen := map[string]bool{}
	for _, s := range cfg.warm() {
		seen[jobLabel(s)] = true
	}
	novel := 0
	tenants := map[string]int{}
	for _, s := range jobs {
		if !seen[jobLabel(s)] {
			novel++
			seen[jobLabel(s)] = true
		}
		tenants[s.Tenant]++
	}
	if want := len(jobs) / 5; novel != want {
		t.Errorf("%d of %d jobs have never-seen keys, want %d", novel, len(jobs), want)
	}
	if len(tenants) != 2 {
		t.Errorf("tenants %v, want two", tenants)
	}
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	Work     []struct{ Name string }               `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	var work []string
	for _, w := range b.Work {
		work = append(work, w.Name)
	}
	if !reflect.DeepEqual(work, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", work, workloadNames())
	}
	if len(b.PerLayer) != len(layerSpecs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code has %d", len(b.PerLayer), len(layerSpecs))
	}
	for i, l := range layerSpecs {
		got := b.PerLayer[i]
		if got.Name != l.name || got.Unit != l.unit || got.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, got, l)
		}
	}
	shares := cpuLayerNames()
	for _, s := range shares {
		found := false
		for _, l := range layerSpecs {
			found = found || l.name == s
		}
		if !found {
			t.Errorf("CPU share %s is not a per-layer metric", s)
		}
	}
}

// TestMinimalRunsEmitEveryMetric runs each workload at minimal size, untraced
// and traced, and checks the result line carries exactly the metrics
// BENCHMARK.json declares, with their units, and passes the gate.
func TestMinimalRunsEmitEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	exp := mustExpected(t)
	for _, traced := range []bool{false, true} {
		want := map[string]string{}
		list := b.EndToEnd
		if traced {
			list = b.PerLayer
		}
		for _, m := range list {
			want[m.Name] = m.Unit
		}
		for name, w := range testWorkloads(t, 3, exp) {
			res, err := run(options{workload: name, seed: 3, seconds: 0.2, trace: traced, outDir: t.TempDir()}, w, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			got := map[string]string{}
			for k, m := range res.Metrics {
				got[k] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", name, traced, keys(got), keys(want))
			}
			if !traced {
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
					}
				}
				continue
			}
			var shareSum float64
			for _, s := range cpuLayerNames() {
				shareSum += res.Metrics[s].Value
			}
			if shareSum <= 0 || shareSum > 1 {
				t.Errorf("%s: CPU shares sum to %v, want in (0, 1]", name, shareSum)
			}
		}
	}
}

func keys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestGateCatchesWrongCycles corrupts one expected cycle count per workload
// and requires the run to fail.
func TestGateCatchesWrongCycles(t *testing.T) {
	corrupt := map[string]func(e *expectedTable){
		"cnn-multicore": func(e *expectedTable) {
			k := testCNN().label()
			v := e.CNN[k]
			v.Cycles++
			e.CNN[k] = v
		},
		"llm-serve": func(e *expectedTable) {
			e.Iterations[specLabel(modelzoo.Spec{Model: "decoder-tiny", Batch: 1, Ctx: 8, Prefill: true})]++
		},
		"fleet-mix": func(e *expectedTable) {
			e.Jobs[jobLabel(service.JobSpec{Model: "gemm", N: 64})]++
		},
	}
	for name, f := range corrupt {
		exp := mustExpected(t)
		f(exp)
		var w workload
		var err error
		seconds := 0.1
		switch name {
		case "cnn-multicore":
			w, err = newCNN(testCNN(), exp)
		case "llm-serve":
			w, err = newLLM(testLLM(3), exp)
		case "fleet-mix":
			// gemm n64 is a never-seen key of the job list; a run long
			// enough to use the list up runs it.
			w, err = newFleet(testFleet(3), exp)
			seconds = 60
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(options{workload: name, seed: 3, seconds: seconds}, w, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted expectation passed: %+v", name, res)
		}
	}
}

// TestExpectedTable recomputes the test-size entries of expected.json from
// the simulator; with -update it recomputes and rewrites every entry.
func TestExpectedTable(t *testing.T) {
	cnns := []cnnConfig{testCNN()}
	llms := []llmConfig{testLLM(3)}
	fleets := []fleetConfig{testFleet(3)}
	if *update {
		cnns = append(cnns, defaultCNN())
		llms = append(llms, defaultLLM(1))
		fleets = append(fleets, defaultFleet(1))
	}
	got := &expectedTable{CNN: map[string]cnnExpect{}, Iterations: map[string]int64{}, Jobs: map[string]int64{}}
	cfg := npu.TPUv3Config()
	for _, c := range cnns {
		got.CNN[c.label()] = simulateCNN(t, c)
	}
	for _, c := range llms {
		// Every shape any trace can reach: the batch-1 prefill, and decode at
		// each batch size and padded KV length the prompt and output allow.
		shapes := []modelzoo.Spec{{Model: c.Model, Batch: 1, Ctx: c.Prompt, Prefill: true}}
		for b := 1; b <= c.MaxBatch; b++ {
			for kv := c.Prompt + 1; kv < c.Prompt+c.Output; kv++ {
				shapes = append(shapes, modelzoo.Spec{Model: c.Model, Batch: b, Ctx: (kv + c.KVBlock - 1) / c.KVBlock * c.KVBlock})
			}
		}
		for _, s := range shapes {
			if _, ok := got.Iterations[specLabel(s)]; ok {
				continue
			}
			comp, err := compiler.New(cfg, compiler.DefaultOptions()).Compile(mustGraph(t, s, cfg))
			if err != nil {
				t.Fatal(err)
			}
			res, err := togsim.NewStandard(cfg, togsim.SimpleNet, dram.FRFCFS).Engine.Run([]*togsim.Job{comp.Job(comp.Name, 0, 0)})
			if err != nil {
				t.Fatal(err)
			}
			got.Iterations[specLabel(s)] = res.Cycles
		}
	}
	svc := service.New(service.Config{Workers: 2, QueueDepth: 1024})
	svc.Start()
	defer svc.Close()
	var specs []service.JobSpec
	for _, c := range fleets {
		specs = append(specs, c.warm()...)
		for _, n := range c.NovelN {
			specs = append(specs, service.JobSpec{Model: "gemm", N: n})
		}
	}
	var ids []string
	for _, s := range specs {
		j, err := svc.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for i, id := range ids {
		j, err := svc.Wait(id)
		if err != nil || j.Result == nil {
			t.Fatalf("%s: %v %s", jobLabel(specs[i]), err, j.Error)
		}
		got.Jobs[jobLabel(specs[i])] = j.Result.Canonical().Cycles
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	exp := mustExpected(t)
	for k, v := range got.CNN {
		if exp.CNN[k] != v {
			t.Errorf("cnn %s: simulated %+v, expected.json has %+v", k, v, exp.CNN[k])
		}
	}
	for k, v := range got.Iterations {
		if exp.Iterations[k] != v {
			t.Errorf("iteration %s: simulated %d, expected.json has %d", k, v, exp.Iterations[k])
		}
	}
	for k, v := range got.Jobs {
		if exp.Jobs[k] != v {
			t.Errorf("job %s: simulated %d, expected.json has %d", k, v, exp.Jobs[k])
		}
	}
}

func mustGraph(t *testing.T, s modelzoo.Spec, cfg npu.Config) *graph.Graph {
	t.Helper()
	g, err := modelzoo.BuildFor(s.Normalize(), cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func simulateCNN(t *testing.T, c cnnConfig) cnnExpect {
	t.Helper()
	cfg := npu.TPUv3Config()
	g, err := modelzoo.BuildGraph(c.Spec)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := compiler.New(cfg, compiler.DefaultOptions()).Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cores = c.Cores
	jobs := make([]*togsim.Job, c.Cores)
	for i := range jobs {
		jobs[i] = comp.Job(comp.Name, i, i)
	}
	s := togsim.NewStandard(cfg, togsim.SimpleNet, dram.FRFCFS)
	res, err := s.Engine.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	st := s.MemStats()
	return cnnExpect{Cycles: res.Cycles, DRAMReads: st.Reads, DRAMWrites: st.Writes, RowHits: st.RowHits, NoCFlits: s.NetFlits()}
}
