package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the call. Parent links a call to the op (or set-up
// step) that caused it; spans of one op share Op.
type span struct {
	ID      int64              `json:"id"`
	Parent  int64              `json:"parent,omitempty"`
	Op      int64              `json:"op,omitempty"`
	Name    string             `json:"name"`
	StartUs float64            `json:"start_us"`
	EndUs   float64            `json:"end_us"`
	Args    map[string]float64 `json:"args,omitempty"`
}

// tracer keeps spans in memory while active; write dumps them at the end
// of the run. A nil or inactive tracer records nothing and costs one
// atomic load per call.
type tracer struct {
	t0     time.Time
	active atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(active bool) *tracer {
	tr := &tracer{t0: time.Now()}
	tr.active.Store(active)
	return tr
}

func (tr *tracer) setActive(on bool) {
	if tr != nil {
		tr.active.Store(on)
	}
}

func (tr *tracer) on() bool { return tr != nil && tr.active.Load() }

// newID reserves a span ID, so children can name a parent that has not
// ended yet (0 when inactive).
func (tr *tracer) newID() int64 {
	if !tr.on() {
		return 0
	}
	return tr.nextID.Add(1)
}

// record stores a finished span under id (from newID); a zero id records
// nothing.
func (tr *tracer) record(id, parent, op int64, name string, start, end time.Time, args map[string]float64) {
	if id == 0 || !tr.on() {
		return
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		StartUs: float64(start.Sub(tr.t0)) / 1e3, EndUs: float64(end.Sub(tr.t0)) / 1e3, Args: args}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

func (tr *tracer) len() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.spans)
}

// write dumps the spans as one JSON document.
func (tr *tracer) write(path, workload string, seed int64) error {
	tr.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, tr.spans}
	data, err := json.Marshal(doc)
	tr.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dir: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// runtimeSnap holds the runtime/metrics counters the per-layer GC and
// allocation metrics are computed from.
type runtimeSnap struct {
	gcCPU, totalCPU, idleCPU, allocBytes float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSnap{gcCPU: val(0), totalCPU: val(1), idleCPU: val(2), allocBytes: val(3)}
}

func (a runtimeSnap) since(b runtimeSnap) runtimeSnap {
	return runtimeSnap{
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
		idleCPU:    a.idleCPU - b.idleCPU,
		allocBytes: a.allocBytes - b.allocBytes,
	}
}

// gcShare is GC CPU time over the CPU time the process used (not counting
// idle Ps).
func (a runtimeSnap) gcShare() float64 { return ratio(a.gcCPU, a.totalCPU-a.idleCPU) }
