package main

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"

	"rmfec/internal/core"
	"rmfec/internal/loss"
)

// tapEnv wraps an engine's core.Env. Every frame the engine sends passes
// onFrame (group first-transmission stamps, frame counts); with a tracer, sends become spans of txKind and After
// callbacks spans of timerKind, and each callback's lateness against its
// due time is recorded. wrapEnv keeps the inner Env's BatchEnv extension,
// so the engine takes the same transmit path wrapped or not.
type tapEnv struct {
	inner     core.Env
	tr        *tracer
	txKind    spanKind
	timerKind spanKind
	onFrame   func(b []byte)

	frames int64     // frames handed to the inner Env
	calls  int64     // send calls (a batch counts once)
	lagsMs []float64 // traced runs: After-callback lateness in ms
}

// tapBatchEnv is a tapEnv over an Env that implements core.BatchEnv.
type tapBatchEnv struct {
	*tapEnv
	batch core.BatchEnv
}

// wrapEnv returns e as a core.Env that is also a core.BatchEnv exactly
// when e.inner is one.
func wrapEnv(e *tapEnv) core.Env {
	if b, ok := e.inner.(core.BatchEnv); ok {
		return &tapBatchEnv{tapEnv: e, batch: b}
	}
	return e
}

func (e *tapEnv) Now() time.Duration { return e.inner.Now() }
func (e *tapEnv) Rand() *rand.Rand   { return e.inner.Rand() }

func (e *tapEnv) observe(b []byte) {
	e.frames++
	if e.onFrame != nil {
		e.onFrame(b)
	}
}

func (e *tapEnv) Multicast(b []byte) error {
	e.observe(b)
	e.calls++
	e.tr.begin(e.txKind)
	err := e.inner.Multicast(b)
	e.tr.end()
	return err
}

func (e *tapEnv) MulticastControl(b []byte) error {
	e.observe(b)
	e.calls++
	e.tr.begin(e.txKind)
	err := e.inner.MulticastControl(b)
	e.tr.end()
	return err
}

func (e *tapBatchEnv) MulticastBatch(frames [][]byte) (int, error) {
	for _, b := range frames {
		e.observe(b)
	}
	e.calls++
	e.tr.begin(e.txKind)
	n, err := e.batch.MulticastBatch(frames)
	e.tr.end()
	return n, err
}

func (e *tapEnv) After(d time.Duration, fn func()) func() {
	if e.tr == nil {
		return e.inner.After(d, fn)
	}
	due := e.inner.Now() + d
	return e.inner.After(d, func() {
		e.lagsMs = append(e.lagsMs, float64(e.inner.Now()-due)/1e6)
		e.tr.begin(e.timerKind)
		fn()
		e.tr.end()
	})
}

// tapPop wraps the loss.Population handed to field.New. It stays a
// SubsetPopulation (and so a SparsePopulation), so the field keeps its
// sparse and subset draw paths; every draw is a kDraw span.
type tapPop struct {
	inner  loss.SubsetPopulation
	tr     *tracer
	calls  int64
	losses int64
}

func (p *tapPop) R() int { return p.inner.R() }
func (p *tapPop) Reset() { p.inner.Reset() }
func (p *tapPop) count(n int) {
	p.calls++
	p.losses += int64(n)
}

func (p *tapPop) Draw(dt float64, lost []bool) {
	p.tr.begin(kDraw)
	p.inner.Draw(dt, lost)
	p.tr.end()
	n := 0
	for _, l := range lost {
		if l {
			n++
		}
	}
	p.count(n)
}

func (p *tapPop) DrawLost(dt float64) []int {
	p.tr.begin(kDraw)
	out := p.inner.DrawLost(dt)
	p.tr.end()
	p.count(len(out))
	return out
}

func (p *tapPop) DrawLostAmong(dt float64, among []int) []int {
	p.tr.begin(kDraw)
	out := p.inner.DrawLostAmong(dt, among)
	p.tr.end()
	p.count(len(out))
	return out
}

// heapSampler tracks the largest live heap seen at the end of a transfer:
// sample forces a GC while the engines are still open and reads the bytes
// it found reachable, so the figure does not depend on when GC happened
// to run.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapSampler) sample() {
	runtime.GC()
	metrics.Read(h.s)
	if h.s[0].Value.Kind() == metrics.KindUint64 {
		if v := h.s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
}

func (h *heapSampler) peakMB() float64 { return float64(h.peak) / (1 << 20) }

// CPU clocks of clock_gettime(2). Unlike the wall clock they do not run
// while the host steals the CPU, which on a shared host moves wall-clock
// figures by tens of percent between runs minutes apart.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling OS thread only
)

// cpuClock reads one of the CPU clocks. A goroutine that locked its OS
// thread (runtime.LockOSThread) can time its own work on clockThreadCPU,
// untouched by other goroutines and GC workers.
func cpuClock(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
