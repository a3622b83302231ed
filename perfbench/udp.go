package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/metrics"
	"rmfec/internal/model"
	"rmfec/internal/packet"
	"rmfec/internal/udpcast"
)

// udp_loopback: one sender Conn and one receiver Conn joined to a
// loopback multicast group; the receiver Conn fronts udpReceivers
// streaming core.Receivers (OnGroup set, OnComplete nil), each behind
// its own Bernoulli loss filter that drops every frame type. The sender
// paces itself (open loop); NAKs drive parity repair.
const (
	udpReceivers = 4
	udpK         = 20
	udpH         = 20
	udpShard     = 1024
	udpLoss      = 0.05
	udpGroups    = 410 // per transfer: 8.4 MB of source
	udpDelta     = 50 * time.Microsecond
	udpDepth     = 4
)

// udpDeadline is the fixed per-transfer delivery deadline, about five
// times a full transfer's usual duration. A (receiver, group) pair not
// delivered by then is a failed delivery.
const udpDeadline = 8 * time.Second

func udpConfig(session uint32, reg *metrics.Registry) core.Config {
	return core.Config{
		Session: session, K: udpK, MaxParity: udpH, Proactive: 0, ShardSize: udpShard,
		Delta: udpDelta, Ts: 2 * time.Millisecond, RetryBase: 50 * time.Millisecond,
		FinInterval: 20 * time.Millisecond,
		Pipeline:    core.PipelineConfig{Depth: udpDepth},
		Metrics:     reg,
	}
}

// udpTransfer is one transfer's measurements.
type udpTransfer struct {
	groups   int
	setup    time.Duration
	active   time.Duration // Send to the last verified delivery
	cpu      time.Duration // process CPU from Send until every pair is delivered or the deadline passes
	allocs   uint64
	lat      []float64 // per (receiver, group); +Inf when undelivered
	failed   int       // pairs without a verified delivery, corrupt ones included
	corrupt  int
	verified int64 // bytes verified, summed over receivers
	frames   int64 // frames the sender handed to its Conn
	sends    int64 // send calls
	sstats   core.SenderStats
	rstats   [udpReceivers]core.ReceiverStats
	rxOrigin int64 // sender-origin frames read by the receiver Conn
	syscalls float64
	lagsMs   []float64
}

// pairLatencies turns per-pair delivery stamps into latency samples in ms:
// at[i][g] is receiver i's verified delivery of group g and first[g] the
// sender's first transmission of g, both as offsets from one base; a zero
// delivery stamp is an undelivered pair and becomes +Inf, beyond any
// limit. It returns the samples and the undelivered count.
func pairLatencies(first []time.Duration, at [][]time.Duration) ([]float64, int) {
	var lat []float64
	undelivered := 0
	for _, row := range at {
		for g, t := range row {
			if t == 0 || first[g] == 0 {
				lat = append(lat, math.Inf(1))
				undelivered++
				continue
			}
			lat = append(lat, float64(t-first[g])/1e6)
		}
	}
	return lat, undelivered
}

// runUDPTransfer runs one transfer of msg, which it refills from seed (the
// run reuses one buffer, as encodeTransfer does).
func runUDPTransfer(group string, seed int64, msg []byte, str, rtr *tracer, heap *heapSampler, ac *allocCounter) (*udpTransfer, error) {
	groups := len(msg) / (udpK * udpShard)
	x := &udpTransfer{groups: groups}
	base := time.Now()
	rng := rand.New(rand.NewSource(seed))
	rng.Read(msg)
	t0 := time.Now() // set-up time excludes generating the payload

	var reg *metrics.Registry
	if str != nil {
		reg = metrics.NewRegistry()
	}
	sc, err := udpcast.Join(group, nil)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	rc, err := udpcast.Join(group, nil)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	sc.Instrument(reg)
	cfg := udpConfig(uint32(rng.Int63()), reg)

	// Sender side. The first-transmission stamps are written under the
	// sender Conn's engine mutex and read after both Conns closed.
	first := make([]time.Duration, groups)
	var shdr packet.Packet
	stap := &tapEnv{inner: sc, tr: str, txKind: kTx, timerKind: kPump}
	stap.onFrame = func(b []byte) {
		if packet.DecodeInto(&shdr, b) == nil && int(shdr.Group) < groups && first[shdr.Group] == 0 &&
			(shdr.Type == packet.TypeData || shdr.Type == packet.TypeParity) {
			first[shdr.Group] = time.Since(base)
		}
	}
	sender, err := core.NewSender(wrapEnv(stap), cfg)
	if err != nil {
		return nil, err
	}
	var sh packet.Packet
	sc.Serve(func(b []byte) {
		if str != nil && packet.DecodeInto(&sh, b) == nil && sh.Type == packet.TypeNak {
			str.begin(kSenderRx)
			sender.HandlePacket(b)
			str.end()
			return
		}
		sender.HandlePacket(b)
	})

	// Receiver side: everything below runs under the receiver Conn's
	// engine mutex (its read loop and timers).
	at := make([][]time.Duration, udpReceivers)
	var mu sync.Mutex // guards last and done's close against the waiter
	var last time.Time
	delivered := 0
	done := make(chan struct{})
	rtap := &tapEnv{inner: rc, tr: rtr, txKind: kRecvTx, timerKind: kRecvTimer}
	renv := wrapEnv(rtap)
	recvs := make([]*core.Receiver, udpReceivers)
	filters := make([]*rand.Rand, udpReceivers)
	for i := range recvs {
		i := i
		at[i] = make([]time.Duration, groups)
		filters[i] = rand.New(rand.NewSource(rng.Int63()))
		r, err := core.NewReceiver(renv, cfg)
		if err != nil {
			return nil, err
		}
		r.OnGroup = func(g uint32, shards [][]byte) {
			now := time.Now()
			if int(g) >= groups || at[i][g] != 0 {
				return
			}
			rtr.begin(kVerify)
			ok := len(shards) == udpK
			for j := 0; ok && j < len(shards); j++ {
				off := (int(g)*udpK + j) * udpShard
				ok = bytes.Equal(shards[j], msg[off:off+udpShard])
			}
			rtr.end()
			if !ok {
				x.corrupt++
				return
			}
			at[i][g] = now.Sub(base)
			x.verified += udpK * udpShard
			delivered++
			mu.Lock()
			last = now
			if delivered == udpReceivers*groups {
				close(done)
			}
			mu.Unlock()
		}
		recvs[i] = r
	}
	var rh packet.Packet
	rc.Serve(func(b []byte) {
		kind := kRecvShard
		if rtr != nil && packet.DecodeInto(&rh, b) == nil {
			switch rh.Type {
			case packet.TypeNak:
				kind = kRecvNak
			case packet.TypePoll, packet.TypeFin:
				kind = kRecvCtl
			}
			if rh.Type != packet.TypeNak {
				x.rxOrigin++
			}
		}
		for i, r := range recvs {
			if filters[i].Float64() < udpLoss {
				continue
			}
			rtr.begin(kind)
			r.HandlePacket(b)
			rtr.end()
		}
	})
	x.setup = time.Since(t0)

	a0, c0, start := ac.read(), cpuClock(clockProcessCPU), time.Now()
	sc.Do(func() { err = sender.Send(msg) })
	if err != nil {
		return nil, err
	}
	timer := time.NewTimer(udpDeadline)
	select {
	case <-done:
	case <-timer.C:
	}
	timer.Stop()
	x.cpu, x.allocs = cpuClock(clockProcessCPU)-c0, ac.read()-a0
	heap.sample()
	sc.Do(func() {
		x.sstats = sender.Stats()
		x.frames, x.sends = stap.frames, stap.calls
		x.lagsMs = stap.lagsMs
		sender.Close()
	})
	rc.Do(func() {
		for i, r := range recvs {
			x.rstats[i] = r.Stats()
			r.Close()
		}
	})
	mu.Lock()
	if !last.IsZero() {
		x.active = last.Sub(start)
	}
	mu.Unlock()
	x.syscalls = registryValue(reg, `udpcast_tx_syscalls_total{path="sendmmsg"}`) +
		registryValue(reg, `udpcast_tx_syscalls_total{path="write"}`)
	if err := sc.Close(); err != nil {
		return nil, err
	}
	if err := rc.Close(); err != nil {
		return nil, err
	}
	var undelivered int
	x.lat, undelivered = pairLatencies(first, at)
	x.failed = undelivered
	return x, nil
}

func runUDP(cfg runCfg) (*outcome, error) {
	var str, rtr *tracer
	if cfg.traced {
		str = newTracer("udp_loopback.sender", cfg.base, 100_000)
		rtr = newTracer("udp_loopback.receivers", cfg.base, 100_000)
	}
	heap, ac := newHeapSampler(), newAllocCounter()
	groups := udpGroups // a probe runs one full transfer: pace_lag_p99 needs its ~1800 pacing ticks
	group := fmt.Sprintf("239.255.%d.%d:%d", 1+uint64(cfg.seed)%250, 1+uint64(cfg.seed/250)%250, 20000+uint64(cfg.seed)%20000)
	msg := make([]byte, groups*udpK*udpShard)
	out := &outcome{correct: true, layers: map[string]float64{}}
	var xs []*udpTransfer
	var setups []float64
	var lat latencies
	start := time.Now()
	for i := 0; ; i++ {
		x, err := runUDPTransfer(group, cfg.seed*1000+int64(i), msg, str, rtr, heap, ac)
		if err != nil {
			return nil, err
		}
		xs = append(xs, x)
		setups = append(setups, x.setup.Seconds())
		lat.add(x.lat)
		out.attempted += udpReceivers * groups
		out.failed += x.failed // a corrupt pair is never stamped, so it is among the undelivered
		if x.corrupt > 0 {
			out.correct = false
		}
		if cfg.probe || (time.Since(start).Seconds() >= cfg.seconds && len(xs) >= 3) {
			break
		}
	}

	var goodput, pktsPerS, groupsPerS, cpuPerMB []float64
	var frames, sends, rxOrigin int64
	var allocs uint64
	var syscalls float64
	var lags []float64
	var s core.SenderStats
	var r core.ReceiverStats
	srcPkts, pairs, stuck, corrupt := 0, 0, 0, 0
	for _, x := range xs {
		corrupt += x.corrupt
		// The sender is paced (open loop), so its rates are wall-clock.
		mb, secs := float64(x.groups*udpK*udpShard)/1e6, x.active.Seconds()
		if secs > 0 {
			goodput = append(goodput, float64(x.verified)/udpReceivers/1e6/secs)
			pktsPerS = append(pktsPerS, float64(x.frames)/secs)
			groupsPerS = append(groupsPerS, float64(x.verified/(udpK*udpShard))/secs)
		}
		cpuPerMB = append(cpuPerMB, x.cpu.Seconds()*1e3/mb)
		allocs += x.allocs
		frames += x.frames
		sends += x.sends
		rxOrigin += x.rxOrigin
		syscalls += x.syscalls
		lags = append(lags, x.lagsMs...)
		srcPkts += x.groups * udpK
		pairs += udpReceivers * x.groups
		if x.failed > 0 {
			stuck++
		}
		addSender(&s, x.sstats)
		for _, rs := range x.rstats {
			addReceiver(&r, rs)
		}
	}
	p50, p99, ok := lat.slow()
	if !ok && cfg.tail {
		return nil, fmt.Errorf("udp_loopback: %d latency samples cannot support p99", lat.n)
	}
	limit := float64(udpDeadline) / 1e6
	p50, p99 = math.Min(p50, limit), math.Min(p99, limit) // undelivered pairs report as the deadline
	out.e2e = map[string]float64{
		"setup_s":               median(setups),
		"goodput_MBps":          slowRate(goodput),
		"sender_pkts_per_s":     slowRate(pktsPerS),
		"receiver_groups_per_s": slowRate(groupsPerS),
		"group_latency_p50_ms":  p50,
		"group_latency_p99_ms":  p99,
		"cpu_ms_per_MB":         slowCost(cpuPerMB),
		"em":                    float64(s.DataTx+s.ParityTx) / float64(srcPkts),
		"peak_heap_MB":          heap.peakMB(),
	}
	out.layers["core.sender.allocs_per_pkt"] = float64(allocs) / float64(frames)
	if cfg.traced {
		fillUDPLayers(out.layers, str, rtr, s, r, udpLayerCounts{
			frames: frames, sends: sends, rxOrigin: rxOrigin, syscalls: syscalls,
			srcPkts: srcPkts, pairs: pairs, lags: lags,
		})
		out.tracers = []*tracer{str, rtr}
	}
	out.notes = append(out.notes, spreadNote("sender_pkts_per_s", pktsPerS), spreadNote("cpu_ms_per_MB", cpuPerMB))
	out.notes = append(out.notes, fmt.Sprintf(
		"udp_loopback: %d transfers of %d groups x %d receivers, %d latency samples, %d pairs undelivered in %d transfers (%d of them corrupt)",
		len(xs), groups, udpReceivers, lat.n, out.failed, stuck, corrupt))
	return out, nil
}

func addSender(dst *core.SenderStats, s core.SenderStats) {
	dst.DataTx += s.DataTx
	dst.ParityTx += s.ParityTx
	dst.PollTx += s.PollTx
	dst.FinTx += s.FinTx
	dst.NakRx += s.NakRx
	dst.NakServed += s.NakServed
	dst.Encoded += s.Encoded
	dst.TxErrors += s.TxErrors
	dst.NcTx += s.NcTx
}

func addReceiver(dst *core.ReceiverStats, r core.ReceiverStats) {
	dst.DataRx += r.DataRx
	dst.ParityRx += r.ParityRx
	dst.DupRx += r.DupRx
	dst.Decodes += r.Decodes
	dst.NakTx += r.NakTx
	dst.NakSupp += r.NakSupp
	dst.PollRx += r.PollRx
}

type udpLayerCounts struct {
	frames, sends, rxOrigin int64
	syscalls                float64
	srcPkts, pairs          int
	lags                    []float64
}

// fillUDPLayers derives the udp workload's per-layer metrics from its span
// aggregates and engine counters, and closes the loop with the paper's
// processing-rate model: the measured costs become a model.Timing whose
// NPRates prediction is compared with the measured busy time per source
// packet at the sender and at one receiver.
func fillUDPLayers(l map[string]float64, str, rtr *tracer, s core.SenderStats, r core.ReceiverStats, c udpLayerCounts) {
	pump, srx, tx := str.get(kPump), str.get(kSenderRx), str.get(kTx)
	shard, nak, ctl := rtr.get(kRecvShard), rtr.get(kRecvNak), rtr.get(kRecvCtl)
	timer, verify := rtr.get(kRecvTimer), rtr.get(kVerify)
	recvBusyUs := shard.totalUs() + nak.totalUs() + ctl.totalUs() + timer.totalUs() - verify.totalUs()
	recvPkts := float64(shard.n + nak.n + ctl.n)
	groupsR := float64(c.pairs)

	l["core.sender.busy_us_per_pkt"] = (pump.totalUs() + srx.totalUs()) / float64(c.frames)
	if p, ok := percentile(c.lags, 0.99); ok {
		l["core.sender.pace_lag_p99_ms"] = p
	}
	l["core.sender.repair_pkts_per_group"] = float64(s.ParityTx+s.NcTx+s.DataTx-c.srcPkts) / float64(c.pairs/udpReceivers)
	l["core.receiver.busy_us_per_pkt"] = recvBusyUs / recvPkts
	l["core.receiver.naks_per_group"] = float64(r.NakTx) / groupsR
	l["core.receiver.nak_suppressed_ratio"] = ratio(float64(r.NakSupp), float64(r.NakTx+r.NakSupp))
	l["codec.decodes_per_group"] = float64(r.Decodes) / groupsR
	l["udpcast.tx_us_per_frame"] = tx.totalUs() / float64(c.frames)
	l["udpcast.syscalls_per_frame"] = c.syscalls / float64(c.frames)
	l["udpcast.frames_per_batch"] = float64(c.frames) / float64(c.sends)
	l["udpcast.kernel_drop_ratio"] = 1 - ratio(float64(c.rxOrigin), float64(c.frames-int64(s.TxErrors)))

	// Model constants in microseconds (model.Timing's unit).
	_, decUs := codecCosts(1)
	tm := model.Timing{
		Xp: pump.totalUs() / float64(c.frames),
		Xn: ratio(srx.totalUs(), float64(s.NakRx)),
		Yp: (shard.totalUs() - verify.totalUs()) / float64(shard.n),
		Yn: ratio(timer.totalUs(), float64(r.NakTx)),
		Yo: ratio(nak.totalUs(), float64(nak.n)),
		Yt: ratio(timer.totalUs(), float64(timer.n)),
		Ce: 0, // a = 0: parities are encoded on demand inside the pump, already in Xp
		Cd: decUs / meanErasures(udpK, udpLoss) / udpK,
	}
	measSend := (pump.totalUs() + srx.totalUs()) / float64(c.srcPkts)
	measRecv := recvBusyUs / udpReceivers / float64(c.srcPkts)
	if sendUs, recvUs, ok := modelPredict(udpK, udpReceivers, udpLoss, tm); ok {
		l["model.send_pred_over_meas"] = sendUs / measSend
		l["model.recv_pred_over_meas"] = recvUs / measRecv
	}
}
