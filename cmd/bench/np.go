package main

// The NP loopback tier measures the protocol hot path itself — Fig 17/18's
// host-processing bound Λs — by draining a whole transfer through an
// in-process loopback Env and counting wire packets per second of CPU.
// Three legs run back to back each pass:
//
//   serial     the RETAINED pre-PR transmit path (per-packet Marshal
//              allocation, per-packet After closure, per-packet Multicast,
//              slice send queue), transcribed below exactly like
//              sim.DenseNoFEC retains the dense Monte-Carlo engines — the
//              honest before/after baseline for this PR;
//   depth0     today's core.Sender with the pipeline disabled (pooled
//              frames, ring queue; bit-identical wire transcript to serial);
//   pipelined  core.Sender with Config.Pipeline enabled (encode-ahead
//              worker pool + MulticastBatch draining).
//
// The headline speedup pairs pipelined against serial within one pass, so
// both legs see the same host conditions.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"runtime"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/metrics"
	"rmfec/internal/packet"
	"rmfec/internal/rse"
	"rmfec/internal/udpcast"
)

// npEnv is a deterministic in-process loopback Env: frames are counted
// (and optionally hashed, for -transcript) and discarded, time is virtual,
// and at most one timer is pending — the sender's pump keeps exactly one
// outstanding. drive() runs the engine to quiescence.
type npEnv struct {
	now     time.Duration
	pending func()
	rng     *rand.Rand
	pkts    int
	bytes   int64
	batches int
	hash    hash.Hash
}

func newNPEnv(seed int64) *npEnv { return &npEnv{rng: rand.New(rand.NewSource(seed))} }

func (e *npEnv) Now() time.Duration { return e.now }
func (e *npEnv) Rand() *rand.Rand   { return e.rng }

func (e *npEnv) Multicast(b []byte) error {
	e.pkts++
	e.bytes += int64(len(b))
	if e.hash != nil {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(b)))
		e.hash.Write(n[:])
		e.hash.Write(b)
	}
	return nil
}

func (e *npEnv) MulticastControl(b []byte) error { return e.Multicast(b) }

func (e *npEnv) MulticastBatch(frames [][]byte) (int, error) {
	e.batches++
	for _, b := range frames {
		e.Multicast(b) //nolint:errcheck // loopback cannot fail
	}
	return len(frames), nil
}

func (e *npEnv) After(d time.Duration, fn func()) (cancel func()) {
	e.now += d
	e.pending = fn
	return func() {}
}

func (e *npEnv) drive() {
	for e.pending != nil {
		fn := e.pending
		e.pending = nil
		fn()
	}
}

// legacySender is the retained pre-PR NP transmit loop (sender.go at the
// PR-4 tip), kept verbatim in its per-packet costs so the bench compares
// against what this PR replaced: MustEncode allocates a fresh wire frame
// per packet, proactive parities are encoded inline on the pump with a
// freshly allocated shard each, the send queue is a head-sliced slice, and
// every pump step allocates a new continuation closure for After.
type legacySender struct {
	env       *npEnv
	k         int
	shardSize int
	maxParity int
	proactive int
	session   uint32
	delta     time.Duration
	finIvl    time.Duration
	finLeft   int
	code      *rse.Code

	groups     [][][]byte // per-TG data shards, built before the timed drain
	nextParity []int
	nextTG     int
	sendQ      []legacyPkt
	pumping    bool
	msgLen     uint64
}

type legacyPkt struct {
	wire    []byte
	control bool
}

func newLegacySender(env *npEnv, groups, k, h, proactive, shardSize int) *legacySender {
	cfg := core.Config{K: k, MaxParity: h, ShardSize: shardSize}
	cfg.Defaults() // mirror the engine's Delta/FinInterval/FinCount
	ls := &legacySender{
		env:       env,
		k:         k,
		shardSize: shardSize,
		maxParity: h,
		proactive: proactive,
		session:   17,
		delta:     cfg.Delta,
		finIvl:    cfg.FinInterval,
		finLeft:   cfg.FinCount,
		code:      rse.MustNew(k, h),
		msgLen:    uint64(groups * k * shardSize),
	}
	ls.groups = make([][][]byte, groups)
	ls.nextParity = make([]int, groups)
	for g := range ls.groups {
		shards := make([][]byte, k)
		for i := range shards {
			shards[i] = make([]byte, shardSize)
		}
		ls.groups[g] = shards
	}
	return ls
}

func (ls *legacySender) marshal(p packet.Packet) []byte { return p.MustEncode() }

func (ls *legacySender) dataPacket(g, i int) []byte {
	return ls.marshal(packet.Packet{
		Type: packet.TypeData, Session: ls.session, Group: uint32(g),
		Seq: uint16(i), K: uint16(ls.k), Total: uint32(len(ls.groups)),
		Payload: ls.groups[g][i],
	})
}

func (ls *legacySender) parityPacket(g int) []byte {
	j := ls.nextParity[g]
	ls.nextParity[g]++
	// Pre-PR behaviour: EncodeParity with a nil destination allocates the
	// parity shard on every call (gf8Codec passed nil dst).
	shard, err := ls.code.EncodeParity(j, ls.groups[g], nil)
	if err != nil {
		panic(err)
	}
	return ls.marshal(packet.Packet{
		Type: packet.TypeParity, Session: ls.session, Group: uint32(g),
		Seq: uint16(ls.k + j), K: uint16(ls.k), Total: uint32(len(ls.groups)),
		Payload: shard,
	})
}

func (ls *legacySender) pollPacket(g, roundSize int) []byte {
	return ls.marshal(packet.Packet{
		Type: packet.TypePoll, Session: ls.session, Group: uint32(g),
		K: uint16(ls.k), Count: uint16(roundSize), Total: uint32(len(ls.groups)),
	})
}

func (ls *legacySender) finPacket() []byte {
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], ls.msgLen)
	return ls.marshal(packet.Packet{
		Type: packet.TypeFin, Session: ls.session, K: uint16(ls.k),
		Total: uint32(len(ls.groups)), Payload: payload[:],
	})
}

func (ls *legacySender) refill() {
	if ls.nextTG >= len(ls.groups) {
		return
	}
	g := ls.nextTG
	ls.nextTG++
	for i := 0; i < ls.k; i++ {
		ls.sendQ = append(ls.sendQ, legacyPkt{wire: ls.dataPacket(g, i)})
	}
	a := ls.proactive
	if a > ls.maxParity {
		a = ls.maxParity
	}
	for j := 0; j < a; j++ {
		ls.sendQ = append(ls.sendQ, legacyPkt{wire: ls.parityPacket(g)})
	}
	ls.sendQ = append(ls.sendQ, legacyPkt{wire: ls.pollPacket(g, ls.k+a), control: true})
	if ls.nextTG == len(ls.groups) {
		ls.sendQ = append(ls.sendQ, legacyPkt{wire: ls.finPacket(), control: true})
	}
}

func (ls *legacySender) pump() {
	if ls.pumping {
		return
	}
	if len(ls.sendQ) == 0 {
		ls.refill()
	}
	if len(ls.sendQ) == 0 {
		if ls.finLeft > 0 {
			ls.finLeft--
			ls.sendQ = append(ls.sendQ, legacyPkt{wire: ls.finPacket(), control: true})
			ls.pumping = true
			ls.env.After(ls.finIvl, func() {
				ls.pumping = false
				ls.pump()
			})
		}
		return
	}
	out := ls.sendQ[0]
	ls.sendQ = ls.sendQ[1:]
	if out.control {
		ls.env.MulticastControl(out.wire) //nolint:errcheck // loopback
	} else {
		ls.env.Multicast(out.wire) //nolint:errcheck // loopback
	}
	ls.pumping = true
	ls.env.After(ls.delta, func() {
		ls.pumping = false
		ls.pump()
	})
}

// legRun is one timed drain of one leg.
type legRun struct {
	pkts      int
	mb        float64
	secs      float64
	allocsPkt float64
}

func (l legRun) pktsS() float64 {
	if l.secs <= 0 {
		return 0
	}
	return float64(l.pkts) / l.secs
}

func (l legRun) mbS() float64 {
	if l.secs <= 0 {
		return 0
	}
	return l.mb / l.secs
}

// timeDrain measures env.drive() after the engine has already emitted its
// first packet (both senders transmit once from start/Send), so setup —
// shard slicing in particular — stays outside the timed region for every
// leg alike.
func timeDrain(env *npEnv) legRun {
	p0, b0 := env.pkts, env.bytes
	runtime.GC() // each leg starts with a clean heap, not the last leg's debt
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	env.drive()
	secs := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	run := legRun{pkts: env.pkts - p0, mb: float64(env.bytes-b0) / 1e6, secs: secs}
	if run.pkts > 0 {
		run.allocsPkt = float64(m1.Mallocs-m0.Mallocs) / float64(run.pkts)
	}
	return run
}

func legacyDrain(groups, k, h, proactive, shardSize int) legRun {
	env := newNPEnv(1)
	ls := newLegacySender(env, groups, k, h, proactive, shardSize)
	ls.pump()
	return timeDrain(env)
}

func senderDrain(groups, k, h, proactive, shardSize int, pl core.PipelineConfig) (legRun, core.PipelineStats) {
	env := newNPEnv(1)
	cfg := core.Config{
		Session: 17, K: k, MaxParity: h, Proactive: proactive,
		ShardSize: shardSize, Pipeline: pl,
	}
	s, err := core.NewSender(env, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defer s.Close()
	if err := s.Send(make([]byte, groups*k*shardSize)); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	run := timeDrain(env)
	return run, s.PipelineStats()
}

type npStats struct {
	Scenario           string  `json:"scenario"`
	K                  int     `json:"k"`
	H                  int     `json:"h"`
	Proactive          int     `json:"proactive"`
	Groups             int     `json:"groups"`
	Packets            int     `json:"packets_per_run"`
	SerialPktsS        float64 `json:"serial_pkts_s"`
	SerialMBs          float64 `json:"serial_mb_s"`
	SerialAllocsPkt    float64 `json:"serial_allocs_per_pkt"`
	Depth0PktsS        float64 `json:"depth0_pkts_s"`
	Depth0AllocsPkt    float64 `json:"depth0_allocs_per_pkt"`
	PipelinedPktsS     float64 `json:"pipelined_pkts_s"`
	PipelinedMBs       float64 `json:"pipelined_mb_s"`
	PipelinedAllocsPkt float64 `json:"pipelined_allocs_per_pkt"`
	Speedup            float64 `json:"speedup"`
	SpeedupVsDepth0    float64 `json:"speedup_vs_depth0"`
	EncodeHits         uint64  `json:"encode_ahead_hits"`
	EncodeMisses       uint64  `json:"encode_ahead_misses"`
}

// npBench runs the loopback tier: the drain scenario (proactive = 0, the
// Fig 17 pure data-path bound) is the ≥2x headline; the proactive = 5
// scenario adds inline coding to both legs, which on a single-core host
// bounds both the same way — multi-core hosts see the encode-ahead overlap
// on top.
func npBench(runs, groups int) []npStats {
	const k, h = 20, 5
	pl := core.PipelineConfig{Depth: 8, Workers: 2, Batch: 32, EncodeShards: 2}
	var out []npStats
	for _, sc := range []struct {
		name      string
		proactive int
	}{
		{"drain", 0},
		{"proactive", 5},
	} {
		fmt.Fprintf(os.Stderr, "bench: measuring NP loopback %s (k=%d h=%d a=%d)...\n",
			sc.name, k, h, sc.proactive)
		st := npStats{Scenario: sc.name, K: k, H: h, Proactive: sc.proactive, Groups: groups}
		var serialR, d0R, pipeR, ratios, d0Ratios []float64
		var serialAllocs, d0Allocs, pipeAllocs []float64
		var ps core.PipelineStats
		for i := 0; i < runs; i++ {
			serial := legacyDrain(groups, k, h, sc.proactive, shardBytes)
			d0, _ := senderDrain(groups, k, h, sc.proactive, shardBytes, core.PipelineConfig{})
			var pipe legRun
			pipe, ps = senderDrain(groups, k, h, sc.proactive, shardBytes, pl)
			st.Packets = pipe.pkts
			serialR = append(serialR, serial.pktsS())
			d0R = append(d0R, d0.pktsS())
			pipeR = append(pipeR, pipe.pktsS())
			serialAllocs = append(serialAllocs, serial.allocsPkt)
			d0Allocs = append(d0Allocs, d0.allocsPkt)
			pipeAllocs = append(pipeAllocs, pipe.allocsPkt)
			if serial.pktsS() > 0 {
				ratios = append(ratios, pipe.pktsS()/serial.pktsS())
			}
			if d0.pktsS() > 0 {
				d0Ratios = append(d0Ratios, pipe.pktsS()/d0.pktsS())
			}
			st.SerialMBs = serial.mbS()
			st.PipelinedMBs = pipe.mbS()
		}
		st.SerialPktsS = median(serialR)
		st.Depth0PktsS = median(d0R)
		st.PipelinedPktsS = median(pipeR)
		st.SerialAllocsPkt = median(serialAllocs)
		st.Depth0AllocsPkt = median(d0Allocs)
		st.PipelinedAllocsPkt = median(pipeAllocs)
		st.Speedup = median(ratios)
		st.SpeedupVsDepth0 = median(d0Ratios)
		st.EncodeHits = ps.EncodeHits
		st.EncodeMisses = ps.EncodeMisses
		out = append(out, st)
	}
	return out
}

// scalingStats is one point of the per-core encode scaling sweep: an
// encode-bound drain (proactive = MaxParity, so every group pays h parity
// rows) run under a pinned GOMAXPROCS with Workers = procs and
// EncodeShards = min(procs, h). The paired depth-0 leg runs under the same
// GOMAXPROCS, so the speedup isolates what the sharded pipeline buys at
// that core count rather than mixing in host-wide frequency drift.
type scalingStats struct {
	Procs           int     `json:"gomaxprocs"`
	Workers         int     `json:"workers"`
	EncodeShards    int     `json:"encode_shards"`
	Depth0PktsS     float64 `json:"depth0_pkts_s"`
	PipelinedPktsS  float64 `json:"pipelined_pkts_s"`
	SpeedupVsDepth0 float64 `json:"speedup_vs_depth0"`
}

// scalingBench sweeps the encode-bound scenario across GOMAXPROCS values
// 1/2/4/8, capped at runtime.NumCPU(): a point beyond the host's cores
// would measure the scheduler multiplexing them, not the code. On a
// single-CPU host only GOMAXPROCS=1 is left, so there is no curve — the
// tier skips instead, and the returned marker is emitted into the snapshot
// as np_scaling_skipped.
func scalingBench(runs, groups int) ([]scalingStats, string) {
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "bench: NP encode scaling skipped: single-CPU host, "+
			"every GOMAXPROCS point would multiplex one core into a misleading ~1.0x curve")
		return nil, "skipped_insufficient_cpus"
	}
	const k, h = 20, 5
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	var out []scalingStats
	for _, procs := range []int{1, 2, 4, 8} {
		if procs > runtime.NumCPU() {
			break
		}
		shards := procs
		if shards > h {
			shards = h
		}
		pl := core.PipelineConfig{Depth: 8, Workers: procs, Batch: 32, EncodeShards: shards}
		fmt.Fprintf(os.Stderr, "bench: measuring NP encode scaling at GOMAXPROCS=%d (workers=%d shards=%d)...\n",
			procs, procs, shards)
		runtime.GOMAXPROCS(procs)
		st := scalingStats{Procs: procs, Workers: procs, EncodeShards: shards}
		var d0R, pipeR, ratios []float64
		for i := 0; i < runs; i++ {
			d0, _ := senderDrain(groups, k, h, h, shardBytes, core.PipelineConfig{})
			pipe, _ := senderDrain(groups, k, h, h, shardBytes, pl)
			d0R = append(d0R, d0.pktsS())
			pipeR = append(pipeR, pipe.pktsS())
			if d0.pktsS() > 0 {
				ratios = append(ratios, pipe.pktsS()/d0.pktsS())
			}
		}
		st.Depth0PktsS = median(d0R)
		st.PipelinedPktsS = median(pipeR)
		st.SpeedupVsDepth0 = median(ratios)
		out = append(out, st)
	}
	return out, ""
}

// sysStats reports measured kernel crossings per datagram on a real
// udpcast socket, read as deltas of the udpcast_tx_syscalls_total counter
// rather than inferred from code structure: the batch leg drains frames
// through MulticastBatch in sender-sized batches, the portable leg sends
// the same frames one Multicast at a time.
type sysStats struct {
	Frames              int     `json:"frames"`
	BatchCalls          uint64  `json:"sendmmsg_calls"`
	BatchWriteCalls     uint64  `json:"batch_write_calls"`
	BatchSyscallsPkt    float64 `json:"batch_syscalls_per_pkt"`
	PortableSyscallsPkt float64 `json:"portable_syscalls_per_pkt"`
	Amortization        float64 `json:"amortization"`
}

// syscallBench measures syscalls/pkt over a real multicast socket. It
// returns nil (tier skipped) when the host has no multicast route or the
// sends fail — the same graceful degradation as the udpcast tests.
func syscallBench() *sysStats {
	c, err := udpcast.Join("239.81.7.7:47177", nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: syscall tier skipped:", err)
		return nil
	}
	defer c.Close()
	reg := metrics.NewRegistry()
	c.Instrument(reg)
	sys := func(path string) *metrics.Counter {
		// Same series Instrument registered; the registry dedups by
		// name+labels, so this returns the live counter.
		return reg.Counter("udpcast_tx_syscalls_total", "", metrics.Label{Key: "path", Value: path})
	}
	batchC, writeC := sys("sendmmsg"), sys("write")

	const frames, batch = 512, 32 // sender default Pipeline.Batch
	buf := make([][]byte, batch)
	payload := make([]byte, 64)
	for i := range buf {
		buf[i] = payload
	}
	st := &sysStats{Frames: frames}
	b0, w0 := batchC.Value(), writeC.Value()
	for sent := 0; sent < frames; sent += batch {
		if _, err := c.MulticastBatch(buf); err != nil {
			fmt.Fprintln(os.Stderr, "bench: syscall tier skipped: batch send:", err)
			return nil
		}
	}
	st.BatchCalls = batchC.Value() - b0
	st.BatchWriteCalls = writeC.Value() - w0
	st.BatchSyscallsPkt = float64(st.BatchCalls+st.BatchWriteCalls) / frames

	w1 := writeC.Value()
	for i := 0; i < frames; i++ {
		if err := c.Multicast(payload); err != nil {
			fmt.Fprintln(os.Stderr, "bench: syscall tier skipped: send:", err)
			return nil
		}
	}
	st.PortableSyscallsPkt = float64(writeC.Value()-w1) / frames
	if st.BatchSyscallsPkt > 0 {
		st.Amortization = st.PortableSyscallsPkt / st.BatchSyscallsPkt
	}
	return st
}

// transcriptHash drains one fixed transfer through a hashing loopback and
// returns "<packets>:<sha256>" over the exact wire byte sequence. check.sh
// runs it at depth 0 (twice), pipelined, and pipelined with sharded encode:
// all must agree, which is the shell-level form of
// TestPipelinedTranscriptMatchesSerial.
func transcriptHash(depth, shards int) string {
	env := newNPEnv(3)
	env.hash = sha256.New()
	cfg := core.Config{
		Session: 11, K: 20, MaxParity: 5, Proactive: 2, ShardSize: 64,
	}
	if depth > 0 {
		cfg.Pipeline = core.PipelineConfig{Depth: depth, Workers: 2, Batch: 16, EncodeShards: shards}
	}
	s, err := core.NewSender(env, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defer s.Close()
	msg := make([]byte, 120*20*64)
	rand.New(rand.NewSource(1997)).Read(msg)
	if err := s.Send(msg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	env.drive()
	return fmt.Sprintf("%d:%x", env.pkts, env.hash.Sum(nil))
}
