package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/packet"
)

// encode_bound: the paper's k=20, h=a=5 working point, every parity sent
// proactively, drained closed-loop into a counting Env on a virtual clock.
// No receivers and no transport: the sender's pump, the encode-ahead pool
// and the GF(2^8) codec do the work.
const (
	encK      = 20
	encH      = 5
	encShard  = 1024
	encGroups = 1000 // per transfer: 20 MiB of source
	encDepth  = 8
	encProbeG = 100
)

// sinkEnv is a deterministic loopback core.Env and core.BatchEnv: virtual
// time, at most one pending timer (the pump keeps exactly one), frames
// counted by type and then dropped. drive runs the engine to quiescence.
// It keeps the parity payloads of one spot-check group and stamps every
// POLL, which closes its group's first round, on the CPU clock of the
// pump's thread.
type sinkEnv struct {
	now     time.Duration
	pending func()
	rng     *rand.Rand
	hdr     packet.Packet

	byType  [8]int
	bad     int
	spot    uint32
	spotPar [][]byte
	polls   []time.Duration
}

func newSinkEnv(seed int64, spot uint32) *sinkEnv {
	return &sinkEnv{rng: rand.New(rand.NewSource(seed)), spot: spot}
}

func (e *sinkEnv) Now() time.Duration { return e.now }
func (e *sinkEnv) Rand() *rand.Rand   { return e.rng }

func (e *sinkEnv) Multicast(b []byte) error {
	if packet.DecodeInto(&e.hdr, b) != nil || int(e.hdr.Type) >= len(e.byType) {
		e.bad++
		return nil
	}
	e.byType[e.hdr.Type]++
	switch e.hdr.Type {
	case packet.TypeParity:
		if e.hdr.Group == e.spot {
			e.spotPar = append(e.spotPar, append([]byte(nil), e.hdr.Payload...))
		}
	case packet.TypePoll:
		e.polls = append(e.polls, cpuClock(clockThreadCPU))
	}
	return nil
}

func (e *sinkEnv) MulticastControl(b []byte) error { return e.Multicast(b) }

func (e *sinkEnv) MulticastBatch(frames [][]byte) (int, error) {
	for _, b := range frames {
		e.Multicast(b) //nolint:errcheck // the sink cannot fail
	}
	return len(frames), nil
}

func (e *sinkEnv) After(d time.Duration, fn func()) func() {
	e.now += d
	e.pending = fn
	return func() {}
}

func (e *sinkEnv) drive() {
	for e.pending != nil {
		fn := e.pending
		e.pending = nil
		fn()
	}
}

func encodeConfig(session uint32) core.Config {
	return core.Config{
		Session: session, K: encK, MaxParity: encH, Proactive: encH, ShardSize: encShard,
		Pipeline: core.PipelineConfig{Depth: encDepth},
	}
}

// encTransfer is one drained transfer's measurements.
type encTransfer struct {
	setup, cpu     time.Duration
	frames, groups int
	dataParity     int
	allocs         uint64
	lat            []float64 // pump-thread CPU ms between consecutive POLLs
	ok             bool
	why            string
	stats          core.SenderStats
	pstats         core.PipelineStats
}

// encodeTransfer drains one transfer of msg, which it refills from seed.
// The run reuses one msg buffer so that no transfer's payload allocation
// sets off a GC cycle inside the next transfer's drain.
func encodeTransfer(seed int64, msg []byte, tr *tracer, heap *heapSampler, ac *allocCounter) (*encTransfer, error) {
	groups := len(msg) / (encK * encShard)
	rng := rand.New(rand.NewSource(seed))
	rng.Read(msg)
	spot := uint32(rng.Intn(groups))
	t0 := time.Now() // set-up time excludes generating the payload
	sink := newSinkEnv(seed, spot)
	env := wrapEnv(&tapEnv{inner: sink, tr: tr, txKind: kTx, timerKind: kPump})
	s, err := core.NewSender(env, encodeConfig(uint32(seed)))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	x := &encTransfer{setup: time.Since(t0), groups: groups}

	// The pump runs on this goroutine (Send, then drive), locked to its
	// thread so the POLL stamps time the pump's own work per group: the
	// encode-ahead workers run elsewhere, and waits for them cost no CPU.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	a0, c0, pump0 := ac.read(), cpuClock(clockProcessCPU), cpuClock(clockThreadCPU)
	if err := s.Send(msg); err != nil {
		return nil, err
	}
	sink.drive()
	x.cpu, x.allocs = cpuClock(clockProcessCPU)-c0, ac.read()-a0
	heap.sample() // the sender still holds the transfer

	x.stats, x.pstats = s.Stats(), s.PipelineStats()
	prev := pump0
	for _, t := range sink.polls {
		x.lat = append(x.lat, float64(t-prev)/1e6)
		prev = t
	}
	for _, n := range sink.byType {
		x.frames += n
	}
	x.dataParity = sink.byType[packet.TypeData] + sink.byType[packet.TypeParity]

	// Checks: every parity encoded once, the exact wire count (k data, h
	// parities and one POLL per group, one FIN after the last group and
	// FinCount repeats), and the spot group's parities byte-equal to an
	// independent encode.
	def := core.Config{}
	def.Defaults()
	fins := 1 + def.FinCount
	want := map[packet.Type]int{
		packet.TypeData: groups * encK, packet.TypeParity: groups * encH,
		packet.TypePoll: groups, packet.TypeFin: fins,
	}
	x.ok = true
	fail := func(f string, a ...any) {
		if x.ok {
			x.ok, x.why = false, fmt.Sprintf(f, a...)
		}
	}
	if x.stats.Encoded != groups*encH {
		fail("Encoded = %d, want %d", x.stats.Encoded, groups*encH)
	}
	for t, n := range want {
		if sink.byType[t] != n {
			fail("%v frames = %d, want %d", t, sink.byType[t], n)
		}
	}
	if x.frames != groups*(encK+encH+1)+fins || sink.bad != 0 {
		fail("wire frames = %d (+%d malformed), want %d", x.frames, sink.bad, groups*(encK+encH+1)+fins)
	}
	code, err := core.CodecByID(packet.CodecRS, 0, encK, encH, encShard)
	if err != nil {
		return nil, err
	}
	data := make([][]byte, encK)
	for i := range data {
		off := (int(spot)*encK + i) * encShard
		data[i] = msg[off : off+encShard]
	}
	parity := make([][]byte, encH)
	if err := code.EncodeBlocks(data, parity); err != nil {
		return nil, err
	}
	if len(sink.spotPar) != encH {
		fail("spot group %d: %d parities on the wire", spot, len(sink.spotPar))
	} else {
		for j := range parity {
			if !bytes.Equal(parity[j], sink.spotPar[j]) {
				fail("spot group %d parity %d differs from an independent encode", spot, j)
			}
		}
	}
	return x, nil
}

func runEncode(cfg runCfg) (*outcome, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer("encode_bound.sender", cfg.base, 100_000)
	}
	heap, ac := newHeapSampler(), newAllocCounter()
	groups := encGroups
	if cfg.probe {
		groups = encProbeG
	}
	msg := make([]byte, groups*encK*encShard)
	out := &outcome{correct: true, layers: map[string]float64{}}
	var setups, goodput, pktsPerS, groupsPerS, cpuPerMB []float64
	var lat latencies
	var frames, dataParity, nGroups, transfers int
	var allocs uint64
	var hits, misses uint64
	start := time.Now()
	for i := 0; ; i++ {
		x, err := encodeTransfer(cfg.seed*1000+int64(i), msg, tr, heap, ac)
		if err != nil {
			return nil, err
		}
		transfers++
		out.attempted++
		if !x.ok {
			out.failed++
			out.correct = false
			out.notes = append(out.notes, "encode_bound: check failed: "+x.why)
		}
		setups = append(setups, x.setup.Seconds())
		lat.add(x.lat)
		mb, secs := float64(x.groups*encK*encShard)/1e6, x.cpu.Seconds()
		goodput = append(goodput, mb/secs)
		pktsPerS = append(pktsPerS, float64(x.frames)/secs)
		groupsPerS = append(groupsPerS, float64(x.groups)/secs)
		cpuPerMB = append(cpuPerMB, x.cpu.Seconds()*1e3/mb)
		frames += x.frames
		dataParity += x.dataParity
		nGroups += x.groups
		allocs += x.allocs
		hits += x.pstats.EncodeHits
		misses += x.pstats.EncodeMisses
		if cfg.probe || (time.Since(start).Seconds() >= cfg.seconds && transfers >= 3) {
			break
		}
	}
	p50, p99, ok := lat.slow()
	if !ok && cfg.tail {
		return nil, fmt.Errorf("encode_bound: %d latency samples cannot support p99", lat.n)
	}
	out.e2e = map[string]float64{
		"setup_s":               median(setups),
		"goodput_MBps":          slowRate(goodput),
		"sender_pkts_per_s":     slowRate(pktsPerS),
		"receiver_groups_per_s": slowRate(groupsPerS),
		"group_latency_p50_ms":  p50,
		"group_latency_p99_ms":  p99,
		"cpu_ms_per_MB":         slowCost(cpuPerMB),
		"em":                    float64(dataParity) / float64(nGroups*encK),
		"peak_heap_MB":          heap.peakMB(),
	}
	out.layers["core.sender.allocs_per_pkt"] = float64(allocs) / float64(frames)
	if cfg.traced {
		pump := tr.get(kPump)
		out.layers["core.pipeline.encode_ahead_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		out.layers["core.sender.busy_us_per_pkt"] = pump.totalUs() / float64(frames)
		out.tracers = []*tracer{tr}
	}
	out.notes = append(out.notes, spreadNote("sender_pkts_per_s", pktsPerS), spreadNote("cpu_ms_per_MB", cpuPerMB))
	out.notes = append(out.notes, fmt.Sprintf(
		"encode_bound: %d transfers of %d groups, %d latency samples (POLL-to-POLL), encode-ahead %d hits %d misses",
		transfers, groups, lat.n, hits, misses))
	return out, nil
}
