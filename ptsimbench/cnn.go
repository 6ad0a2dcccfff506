package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/dram"
	"repro/internal/npu"
	"repro/internal/service/modelzoo"
	"repro/internal/togsim"
)

// cnnConfig is the cnn-multicore workload: one model compiled in set-up,
// then replicated on every simulated core sharing one SN fabric with
// FR-FCFS DRAM, simulated by the default serial engine. Its inputs do not
// depend on the seed: the model and the machine are the workload.
type cnnConfig struct {
	Spec  modelzoo.Spec
	Cores int
}

func defaultCNN() cnnConfig {
	return cnnConfig{Spec: modelzoo.Spec{Model: "resnet18", Batch: 1}, Cores: 4}
}

func (c cnnConfig) label() string { return fmt.Sprintf("%s x%d", specLabel(c.Spec), c.Cores) }

type cnnWorkload struct {
	cfg  cnnConfig
	want cnnExpect
	npu  npu.Config
	comp *compiler.Compiled
	// compile holds the last set-up's compile; it is the workload's only
	// compile, so the traced phase reports it.
	compile *compileStats

	mu                              sync.Mutex
	runMs                           []float64
	ops, dramReq, rowHits, nocFlits int64
}

func newCNN(cfg cnnConfig, exp *expectedTable) (*cnnWorkload, error) {
	want, ok := exp.CNN[cfg.label()]
	if !ok {
		return nil, fmt.Errorf("cnn-multicore: no expected result for %q", cfg.label())
	}
	return &cnnWorkload{cfg: cfg, want: want}, nil
}

func (w *cnnWorkload) inputs() string {
	return fmt.Sprintf("model=%s cores=%d npu=tpuv3 net=sn dram=frfcfs engine=serial clients=1 (seed-independent)",
		specLabel(w.cfg.Spec), w.cfg.Cores)
}

func (w *cnnWorkload) clients() int { return 1 }

// setup builds the graph and compiles it cold (a fresh compiler with an
// empty latency cache).
func (w *cnnWorkload) setup(tr *tracer) error {
	cfg := npu.TPUv3Config()
	g, err := modelzoo.BuildGraph(w.cfg.Spec)
	if err != nil {
		return err
	}
	c := compiler.New(cfg, compiler.DefaultOptions())
	w.compile = newCompileStats()
	id, t0 := tr.newID(), time.Now()
	w.compile.attach(c, tr, id)
	comp, err := c.Compile(g)
	tr.record(id, 0, 0, "compiler.Compile", t0, time.Now(), nil)
	if err != nil {
		return fmt.Errorf("compile %s: %w", specLabel(w.cfg.Spec), err)
	}
	cfg.Cores = w.cfg.Cores
	w.npu, w.comp = cfg, comp
	return nil
}

func (w *cnnWorkload) op(_ int, tr *tracer) opResult {
	opID, t0 := tr.newID(), time.Now()
	jobs := make([]*togsim.Job, w.cfg.Cores)
	for c := range jobs {
		jobs[c] = w.comp.Job(fmt.Sprintf("%s-c%d", w.comp.Name, c), c, c)
	}
	s := togsim.NewStandard(w.npu, togsim.SimpleNet, dram.FRFCFS)
	runID, t1 := tr.newID(), time.Now()
	res, err := s.Engine.Run(jobs)
	t2 := time.Now()
	tr.record(runID, opID, opID, "togsim.Engine.Run", t1, t2, map[string]float64{"cycles": float64(res.Cycles)})
	tr.record(opID, 0, opID, "op", t0, t2, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cnn-multicore:", err)
		return opResult{failed: true}
	}
	st := s.MemStats()
	got := cnnExpect{Cycles: res.Cycles, DRAMReads: st.Reads, DRAMWrites: st.Writes, RowHits: st.RowHits, NoCFlits: s.NetFlits()}
	failed := got != w.want
	if failed {
		fmt.Fprintf(os.Stderr, "cnn-multicore: result %+v, expected %+v\n", got, w.want)
	}
	w.mu.Lock()
	w.runMs = append(w.runMs, float64(t2.Sub(t1))/1e6)
	w.ops++
	w.dramReq += st.Reads + st.Writes
	w.rowHits += st.RowHits
	w.nocFlits += got.NoCFlits
	w.mu.Unlock()
	return opResult{cycles: res.Cycles, failed: failed}
}

// rates: every op is the same simulation, so the median op time stands
// for each of them; a job is one op.
func (w *cnnWorkload) rates(ops []opSample) rates {
	var ms, cycles []float64
	for _, o := range ops {
		ms = append(ms, o.ms)
		cycles = append(cycles, float64(o.res.cycles))
	}
	secs := median(ms) / 1e3
	return rates{cyclesPerS: ratio(median(cycles), secs), jobsPerS: ratio(1, secs), latencies: ms}
}

func (w *cnnWorkload) phaseFailures() int { return 0 }

func (w *cnnWorkload) resetLayers() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.runMs = nil
	w.ops, w.dramReq, w.rowHits, w.nocFlits = 0, 0, 0, 0
}

func (w *cnnWorkload) layers(m map[string]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	setZeroLayers(m)
	w.compile.metrics(m)
	m["togsim.run_ms"] = median(w.runMs)
	m["dram.requests"] = ratio(float64(w.dramReq), float64(w.ops))
	m["dram.row_hit_ratio"] = ratio(float64(w.rowHits), float64(w.dramReq))
	m["noc.flits"] = ratio(float64(w.nocFlits), float64(w.ops))
}

func (w *cnnWorkload) close() {}
