package main

import "time"

// The host's own speed drifts. On the 2-vCPU VM this benchmark was written
// on, resnet18x4 ran 2.5 times slower in one ten-minute stretch than in the
// one before, while each run held steady. So the end-to-end timings are
// scaled to a reference host speed, measured just before and just after
// the timed phase by two fixed kernels: a dependent integer multiply-add
// chain, which follows the core's clock, and a pointer chase through
// 16 MiB, which follows memory latency. Neither uses the simulator, so no
// change to the program can move them; the output prints every timing as
// measured too. README.md gives the measurements behind the choice.

// Reference chunk times, in ms: the host speed that leaves timings as
// measured.
const (
	refLoopMs  = 5.5
	refChaseMs = 14.0
)

// hostKernelTime is how long each kernel runs in one host sample.
const hostKernelTime = 500 * time.Millisecond

// chaseNodes is the pointer-chase ring's length: 4 Mi int32 indexes.
const chaseNodes = 1 << 22

// hostSample holds the chunk times (ms) of the two kernels.
type hostSample struct{ loopMs, chaseMs []float64 }

func (h hostSample) merge(o hostSample) hostSample {
	return hostSample{append(h.loopMs, o.loopMs...), append(h.chaseMs, o.chaseMs...)}
}

// scale is above 1 when the host ran slower than the reference speed:
// rates are multiplied by it, times divided by it. Over paired runs while
// the host slowed, the simulator's host time moved about as much as the
// product of the two kernels' times, more than either alone.
func (h hostSample) scale() float64 {
	return median(h.loopMs) / refLoopMs * median(h.chaseMs) / refChaseMs
}

// sinks keep the kernels' results alive.
var loopSink, chaseSink int64

// sampleHost times chunks of each kernel for hostKernelTime (at least three
// chunks each). The ring is built afresh and dropped afterwards, so it
// never sits in the heap during a timed phase.
func sampleHost() hostSample {
	var h hostSample
	for start := time.Now(); len(h.loopMs) < 3 || time.Since(start) < hostKernelTime; {
		t0, x := time.Now(), loopSink
		for i := int64(0); i < 3_000_000; i++ {
			x = x*1103515245 + 12345 + i
		}
		loopSink = x
		h.loopMs = append(h.loopMs, float64(time.Since(t0))/1e6)
	}
	next := chaseRing()
	p := int32(0)
	for start := time.Now(); len(h.chaseMs) < 3 || time.Since(start) < hostKernelTime; {
		t0 := time.Now()
		for i := 0; i < 100_000; i++ {
			p = next[p]
		}
		h.chaseMs = append(h.chaseMs, float64(time.Since(t0))/1e6)
	}
	chaseSink += int64(p)
	return h
}

// chaseRing links every node into one cycle in a fixed pseudo-random order
// (Sattolo's shuffle), so each step is a cache miss the next step waits on.
func chaseRing() []int32 {
	next := make([]int32, chaseNodes)
	for i := range next {
		next[i] = int32(i)
	}
	x := uint64(88172645463325252)
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return next
}
