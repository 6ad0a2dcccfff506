package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/service/modelzoo"
)

// fleetConfig is the fleet-mix workload: an in-process fleet behind its
// coordinator, fed by closed-loop clients from a seeded job list.
type fleetConfig struct {
	Seed    int64
	Members int
	Workers int // per member
	Clients int
	Blocks  int // the job list is Blocks blocks of the fixed block mix
	// Warm holds the repeated specs of each block kind: set-up runs each
	// once, so the timed phase reads them from warm caches.
	Warm map[string][]service.JobSpec
	// NovelN is the pool of gemm sizes for jobs with never-seen keys.
	NovelN []int
}

// fleetBlock is the composition of every block of jobs: counts per kind.
// The seed picks each job's spec within its kind, its tenant, and the order
// inside the block; fixing the counts keeps the mix, and so the latency
// distribution, the same for every seed. Short jobs, never-seen keys
// included, make up four fifths, so job_p50_ms sits inside them, where
// per-job fixed costs weigh most; job_p90_ms sits in the middle of the
// long fifth. A split closer to the percentile puts it on the steep edge
// between the two groups, where it moves with every run.
var fleetBlock = []struct {
	kind  string
	count int
}{
	{"mlp", 5}, {"prefill", 4}, {"gemm", 3}, // ~20-40 ms
	{"novel", 4},               // a never-seen gemm size: cold compile, ~10-60 ms
	{"decode", 3}, {"pkg2", 1}, // ~300 ms
}

// blockSize is the job count of one block.
func blockSize() int {
	n := 0
	for _, k := range fleetBlock {
		n += k.count
	}
	return n
}

func defaultFleet(seed int64) fleetConfig {
	c := fleetConfig{Seed: seed, Members: 3, Workers: 2, Clients: 2, Warm: map[string][]service.JobSpec{
		"mlp":     {{Model: "mlp", Batch: 1}, {Model: "mlp", Batch: 8}, {Model: "mlp", Batch: 32}},
		"prefill": {{Model: "decoder-tiny", Ctx: 64, Prefill: true}},
		"gemm":    {{Model: "gemm", N: 128}, {Model: "gemm", N: 256}},
		"pkg2":    {{Model: "decoder-small", Batch: 1, Ctx: 128, Topology: "pkg2", Parallel: "tensor"}},
	}}
	for _, b := range []int{1, 4} {
		for _, ctx := range []int{64, 128, 256} {
			c.Warm["decode"] = append(c.Warm["decode"], service.JobSpec{Model: "decoder-small", Batch: b, Ctx: ctx})
		}
	}
	for n := 64; n < 384; n++ {
		if n != 128 && n != 256 { // the warm gemm sizes
			c.NovelN = append(c.NovelN, n)
		}
	}
	c.Blocks = len(c.NovelN) / 4
	return c
}

// warm lists the repeated specs in block order.
func (c fleetConfig) warm() []service.JobSpec {
	var out []service.JobSpec
	for _, k := range fleetBlock {
		out = append(out, c.Warm[k.kind]...)
	}
	return out
}

// jobs generates the seeded job list.
func (c fleetConfig) jobs() []service.JobSpec {
	r := rand.New(rand.NewSource(c.Seed))
	novel := append([]int(nil), c.NovelN...)
	r.Shuffle(len(novel), func(i, j int) { novel[i], novel[j] = novel[j], novel[i] })
	var out []service.JobSpec
	for b := 0; b < c.Blocks; b++ {
		var block []service.JobSpec
		for _, k := range fleetBlock {
			for i := 0; i < k.count; i++ {
				var s service.JobSpec
				if k.kind == "novel" {
					s = service.JobSpec{Model: "gemm", N: novel[0]}
					novel = novel[1:]
				} else {
					pool := c.Warm[k.kind]
					s = pool[r.Intn(len(pool))]
				}
				s.Tenant = fmt.Sprintf("t%d", 1+r.Intn(2))
				block = append(block, s)
			}
		}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

func jobLabel(s service.JobSpec) string {
	return specLabel(modelzoo.Spec{Model: s.Model, Batch: s.Batch, N: s.N, Seq: s.Seq, Ctx: s.Ctx,
		Prefill: s.Prefill, Topology: s.Topology, Parallel: s.Parallel})
}

type fleetWorkload struct {
	cfg  fleetConfig
	exp  *expectedTable
	jobs []service.JobSpec
	next atomic.Int64
	l    *fleet.Local

	mu        sync.Mutex
	canonical map[string]service.JobResult // first result per spec label
	traced    bool                         // layer accumulators armed
	compile   *compileStats
	acc       fleetAcc
	queue0    [2]float64 // member queue-wait sum and count at reset
}

// fleetAcc accumulates per-job layer data over the traced phase.
type fleetAcc struct {
	jobs                               int64
	latMs, compileMs, simMs            []float64
	hits, attempts                     int64
	dramReq, rowHits, flits, linkFlits int64
}

func newFleet(cfg fleetConfig, exp *expectedTable) (*fleetWorkload, error) {
	w := &fleetWorkload{cfg: cfg, exp: exp, jobs: cfg.jobs()}
	for _, s := range append(cfg.warm(), w.jobs...) {
		if _, ok := exp.Jobs[jobLabel(s)]; !ok {
			return nil, fmt.Errorf("fleet-mix: no expected cycles for %q", jobLabel(s))
		}
	}
	return w, nil
}

func (w *fleetWorkload) inputs() string {
	var mix []string
	for _, k := range fleetBlock {
		mix = append(mix, fmt.Sprintf("%s=%d", k.kind, k.count))
	}
	return fmt.Sprintf("members=%d workers=%d clients=%d jobs=%d block=[%s] novel_gemm_n=[%d,%d] tenants=2 job_seed=%d npu=tpuv3",
		w.cfg.Members, w.cfg.Workers, w.cfg.Clients, len(w.jobs), strings.Join(mix, " "),
		w.cfg.NovelN[0], w.cfg.NovelN[len(w.cfg.NovelN)-1], w.cfg.Seed)
}

func (w *fleetWorkload) clients() int { return w.cfg.Clients }

// setup boots a fresh fleet (closing any earlier one) and runs every warm
// spec through it once.
func (w *fleetWorkload) setup(tr *tracer) error {
	w.close()
	id, t0 := tr.newID(), time.Now()
	l, err := fleet.StartLocal(fleet.LocalOptions{N: w.cfg.Members, Workers: w.cfg.Workers})
	if err != nil {
		return err
	}
	w.l = l
	w.next.Store(0)
	w.mu.Lock()
	w.canonical = map[string]service.JobResult{}
	w.mu.Unlock()
	warm := w.cfg.warm()
	var ids []string
	for _, s := range warm {
		j, err := l.Coord.Submit(s)
		if err != nil {
			return fmt.Errorf("warm-up submit %s: %w", jobLabel(s), err)
		}
		ids = append(ids, j.ID)
	}
	for i, jid := range ids {
		j, err := l.Coord.Wait(jid)
		if err != nil {
			return err
		}
		if w.check(warm[i], j) {
			return fmt.Errorf("warm-up job %s failed its check", jobLabel(warm[i]))
		}
	}
	tr.record(id, 0, 0, "setup.fleet", t0, time.Now(), nil)
	return nil
}

// check reports whether a finished job failed: not done, cycles other than
// expected, or a canonical result differing from an earlier run of the
// same spec (another member, a cold versus a warm cache).
func (w *fleetWorkload) check(s service.JobSpec, j fleet.Job) bool {
	label := jobLabel(s)
	if j.State != service.StateDone || j.Result == nil {
		fmt.Fprintf(os.Stderr, "fleet-mix: %s ended %s: %s\n", label, j.State, j.Error)
		return true
	}
	canon := j.Result.Canonical()
	if want := w.exp.Jobs[label]; canon.Cycles != want {
		fmt.Fprintf(os.Stderr, "fleet-mix: %s ran %d cycles, expected %d\n", label, canon.Cycles, want)
		return true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	first, ok := w.canonical[label]
	if !ok {
		w.canonical[label] = canon
		return false
	}
	if !reflect.DeepEqual(canon, first) {
		fmt.Fprintf(os.Stderr, "fleet-mix: %s result differs from its first run\n", label)
		return true
	}
	return false
}

func (w *fleetWorkload) op(_ int, tr *tracer) opResult {
	i := w.next.Add(1) - 1
	if i >= int64(len(w.jobs)) {
		return opResult{exhausted: true}
	}
	s := w.jobs[i]
	opID, t0 := tr.newID(), time.Now()
	subID := tr.newID()
	j, err := w.l.Coord.Submit(s)
	t1 := time.Now()
	tr.record(subID, opID, opID, "fleet.Coordinator.Submit", t0, t1, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet-mix: submit %s: %v\n", jobLabel(s), err)
		return opResult{failed: true}
	}
	waitID := tr.newID()
	fin, err := w.l.Coord.Wait(j.ID)
	t2 := time.Now()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet-mix: wait %s: %v\n", jobLabel(s), err)
		return opResult{failed: true}
	}
	failed := w.check(s, fin)
	if failed {
		return opResult{failed: true}
	}
	res := fin.Result
	tr.record(waitID, opID, opID, "fleet.Coordinator.Wait", t1, t2,
		map[string]float64{"compile_ms": res.CompileMs, "sim_ms": res.WallMs})
	tr.record(opID, 0, opID, "op", t0, t2, map[string]float64{"cycles": float64(res.Cycles), "attempts": float64(fin.Attempts)})

	w.mu.Lock()
	if w.traced {
		a := &w.acc
		a.jobs++
		a.latMs = append(a.latMs, float64(t2.Sub(t0))/1e6)
		a.compileMs = append(a.compileMs, res.CompileMs)
		a.simMs = append(a.simMs, res.WallMs)
		if res.CacheHit {
			a.hits++
		}
		a.attempts += int64(fin.Attempts)
		if rep := res.Report; rep != nil {
			if rep.Mem != nil {
				a.dramReq += rep.Mem.Reads + rep.Mem.Writes
				a.rowHits += rep.Mem.RowHits
			}
			if rep.Activity != nil {
				a.flits += rep.Activity.NoCFlits
			}
			if rep.Topology != nil {
				a.linkFlits += rep.Topology.LinkFlits
			}
		}
	}
	w.mu.Unlock()
	return opResult{cycles: res.Cycles, group: int(i) / blockSize()}
}

// rates: every block of the job list has the same composition, so each
// block whose jobs all ran in the phase is one sample of the mix. Clients
// run back to back, so a block's jobs kept the fleet busy for the sum of
// their latencies over the client count; the phase's rates are the medians
// over blocks. A phase too short to hold a whole block counts all its jobs
// as one sample. A job is one op.
func (w *fleetWorkload) rates(ops []opSample) rates {
	type acc struct {
		jobs   int
		ms     float64
		cycles int64
	}
	blocks := map[int]*acc{}
	all := &acc{}
	var lat []float64
	for _, o := range ops {
		b := blocks[o.res.group]
		if b == nil {
			b = &acc{}
			blocks[o.res.group] = b
		}
		for _, a := range []*acc{b, all} {
			a.jobs++
			a.ms += o.ms
			a.cycles += o.res.cycles
		}
		lat = append(lat, o.ms)
	}
	var cycles, jobs []float64
	add := func(a *acc) {
		busy := a.ms / 1e3 / float64(w.cfg.Clients)
		cycles = append(cycles, ratio(float64(a.cycles), busy))
		jobs = append(jobs, ratio(float64(a.jobs), busy))
	}
	for _, b := range blocks {
		if b.jobs == blockSize() {
			add(b)
		}
	}
	if len(cycles) == 0 {
		add(all)
	}
	return rates{cyclesPerS: median(cycles), jobsPerS: median(jobs), latencies: lat}
}

// phaseFailures counts the coordinator's duplicate completions: a job
// finished twice is a failure even when both results were right.
func (w *fleetWorkload) phaseFailures() int {
	return int(w.l.Coord.Stats().DuplicateCompletions)
}

// resetLayers arms the per-layer accumulators: compiler hooks on every
// member's compile cache, and a baseline for the members' queue wait.
func (w *fleetWorkload) resetLayers() {
	stats := newCompileStats()
	for i := 0; i < w.l.N(); i++ {
		w.l.Service(i).Cache().SetCompilerHook(func(c *compiler.Compiler) { stats.attach(c, nil, 0) })
	}
	q, _ := w.memberCounters()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.traced, w.compile, w.acc = true, stats, fleetAcc{}
	w.queue0 = q
}

// memberCounters sums the members' queue-wait histogram (seconds, count)
// from their metrics registries, and their store hits and misses.
func (w *fleetWorkload) memberCounters() (queue [2]float64, store [2]int64) {
	for i := 0; i < w.l.N(); i++ {
		svc := w.l.Service(i)
		var buf bytes.Buffer
		if _, err := svc.Metrics().WriteTo(&buf); err == nil {
			sc := bufio.NewScanner(&buf)
			for sc.Scan() {
				name, val, _ := strings.Cut(sc.Text(), " ")
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					continue
				}
				switch name {
				case "ptsimd_queue_wait_seconds_sum":
					queue[0] += v
				case "ptsimd_queue_wait_seconds_count":
					queue[1] += v
				}
			}
		}
		h, m := svc.Cache().StoreStats()
		store[0] += h
		store[1] += m
	}
	return queue, store
}

func (w *fleetWorkload) layers(m map[string]float64) {
	q, s := w.memberCounters()
	w.mu.Lock()
	defer w.mu.Unlock()
	setZeroLayers(m)
	w.compile.metrics(m)
	a := w.acc
	n := float64(a.jobs)
	queueMs := ratio(q[0]-w.queue0[0], q[1]-w.queue0[1]) * 1e3
	hops := make([]float64, len(a.latMs))
	for i := range hops {
		hops[i] = a.latMs[i] - a.compileMs[i] - a.simMs[i] - queueMs
	}
	m["togsim.run_ms"] = median(a.simMs)
	m["dram.requests"] = ratio(float64(a.dramReq), n)
	m["dram.row_hit_ratio"] = ratio(float64(a.rowHits), float64(a.dramReq))
	m["noc.flits"] = ratio(float64(a.flits), n)
	m["topo.link_flits"] = ratio(float64(a.linkFlits), n)
	m["service.queue_wait_ms"] = queueMs
	m["service.compile_ms"] = ratio(sum(a.compileMs), n)
	m["service.sim_ms"] = ratio(sum(a.simMs), n)
	m["service.cache_hit_ratio"] = ratio(float64(a.hits), n)
	// The store tier is read once per member and core configuration, so
	// its ratio covers the fleet's whole life, warm-up included.
	m["cache.store_hit_ratio"] = ratio(float64(s[0]), float64(s[0]+s[1]))
	m["fleet.hop_p50_ms"] = percentile(hops, 50)
	m["fleet.hop_p90_ms"] = percentile(hops, 90)
	m["fleet.attempts_per_job"] = ratio(float64(a.attempts), n)
}

func (w *fleetWorkload) close() {
	if w.l != nil {
		w.l.Close()
		w.l = nil
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
