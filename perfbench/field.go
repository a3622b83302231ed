package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/field"
	"rmfec/internal/loss"
	"rmfec/internal/metrics"
	"rmfec/internal/model"
	"rmfec/internal/packet"
	"rmfec/internal/simnet"
)

// field_1e6: one core.Sender and one field.Field fronting a million
// simulated receivers on simnet, Bernoulli p = 1%, k = 20, h = 24, a = 2,
// 16-byte shards. Closed loop: the scheduler drains as fast as the host
// runs it.
const (
	fieldR       = 1_000_000
	fieldK       = 20
	fieldH       = 24
	fieldA       = 2
	fieldP       = 0.01
	fieldShard   = 16
	fieldGroups  = 100  // per drain
	fieldMinG    = 1000 // a run drains at least this many groups (p99 support)
	fieldProbeG  = 20
	fieldDelay   = 2 * time.Millisecond
	fieldMaxSecs = 150
)

func fieldConfig(session uint32, reg *metrics.Registry) core.Config {
	return core.Config{
		Session: session, K: fieldK, MaxParity: fieldH, Proactive: fieldA,
		ShardSize: fieldShard, Metrics: reg,
	}
}

// fieldDrain is one drained transfer's measurements.
type fieldDrain struct {
	setup, drain, cpu time.Duration
	groups, done      int
	lat               []float64 // ms from a group's first transmission to its completion at every receiver
	groupTx           []int
	stats             field.Stats
	sstats            core.SenderStats
	frames            int64
	allocs            uint64
	events            float64
	pop               *tapPop
	shardN, ctlN      int64
}

// fieldNet is one drain's engines. newFieldNet builds the bare topology
// (wrap false) or the measured one: the sender's Env always wrapped for
// group stamps, and with a tracer also the sender's handler, the field's
// Env and its loss population, plus a metrics registry for the
// scheduler's event count.
type fieldNet struct {
	sched  *simnet.Scheduler
	sender *core.Sender
	field  *field.Field
	fnode  *simnet.Node
	stap   *tapEnv
	pop    *tapPop
	reg    *metrics.Registry
	msg    []byte
}

func newFieldNet(seed int64, r, groups int, tr *tracer, wrap bool) (*fieldNet, error) {
	n := &fieldNet{sched: simnet.NewScheduler()}
	n.sched.MaxEvents = 200_000_000
	full := wrap && tr != nil
	if full {
		n.reg = metrics.NewRegistry()
		n.sched.Instrument(n.reg)
	}
	net := simnet.NewNetwork(n.sched, rand.New(rand.NewSource(seed)))
	pcfg := fieldConfig(uint32(seed), n.reg)

	senderNode := net.AddNode(simnet.NodeConfig{Delay: fieldDelay})
	var senv core.Env = senderNode
	if wrap {
		n.stap = &tapEnv{inner: senderNode, tr: tr, txKind: kTx, timerKind: kPump}
		senv = wrapEnv(n.stap)
	}
	var err error
	if n.sender, err = core.NewSender(senv, pcfg); err != nil {
		return nil, err
	}
	senderNode.SetHandler(n.sender.HandlePacket)
	if full {
		senderNode.SetHandler(func(b []byte) {
			tr.begin(kSenderRx)
			n.sender.HandlePacket(b)
			tr.end()
		})
	}

	n.fnode = net.AddNode(simnet.NodeConfig{Delay: fieldDelay})
	var fenv core.Env = n.fnode
	var pop loss.Population = loss.NewBernoulliPopulation(r, fieldP, rand.New(rand.NewSource(seed+1)))
	if full {
		fenv = wrapEnv(&tapEnv{inner: n.fnode, tr: tr, txKind: kFieldTx, timerKind: kFieldTimer})
		n.pop = &tapPop{inner: pop.(loss.SubsetPopulation), tr: tr}
		pop = n.pop
	}
	if n.field, err = field.New(fenv, field.Config{Protocol: pcfg, Population: pop, Seed: seed + 2}); err != nil {
		return nil, err
	}
	n.fnode.SetHandler(n.field.HandlePacket)
	n.msg = make([]byte, groups*fieldK*fieldShard)
	rand.New(rand.NewSource(seed + 3)).Read(n.msg)
	return n, nil
}

func runFieldDrain(seed int64, groups int, tr *tracer, heap *heapSampler, ac *allocCounter) (*fieldDrain, error) {
	t0 := time.Now()
	n, err := newFieldNet(seed, fieldR, groups, tr, true)
	if err != nil {
		return nil, err
	}
	d := &fieldDrain{setup: time.Since(t0), groups: groups, pop: n.pop}

	// Group latency: first transmission of a group (sender side) to the
	// end of the field HandlePacket after which the field counts it done,
	// on the drain thread's CPU clock. The simulated network's own delays
	// are virtual; what the host spends moving a group through the drain
	// is this CPU time, which host steal and GC workers do not inflate.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	first := make([]time.Duration, groups)
	doneAt := make([]time.Duration, groups)
	var hdr packet.Packet
	n.stap.onFrame = func(b []byte) {
		if packet.DecodeInto(&hdr, b) == nil && int(hdr.Group) < groups && first[hdr.Group] == 0 &&
			(hdr.Type == packet.TypeData || hdr.Type == packet.TypeParity) {
			first[hdr.Group] = cpuClock(clockThreadCPU)
		}
	}
	scan := 0
	var fh packet.Packet
	f := n.field
	n.fnode.SetHandler(func(b []byte) {
		kind := kFieldCtl
		ok := packet.DecodeInto(&fh, b) == nil
		if ok && (fh.Type == packet.TypeData || fh.Type == packet.TypeParity || fh.Type == packet.TypeNcRepair) {
			kind = kFieldShard
			d.shardN++
		} else {
			d.ctlN++
		}
		before := f.Stats().GroupsDone
		tr.begin(kind)
		f.HandlePacket(b)
		tr.end()
		newly := f.Stats().GroupsDone - before
		if newly <= 0 {
			return
		}
		now := cpuClock(clockThreadCPU)
		if kind == kFieldShard && int(fh.Group) < groups && doneAt[fh.Group] == 0 {
			doneAt[fh.Group] = now
			newly--
		}
		for ; newly > 0 && scan < groups; scan++ {
			if doneAt[scan] == 0 {
				doneAt[scan] = now
				newly--
			}
		}
	})

	a0, c0, start := ac.read(), cpuClock(clockProcessCPU), time.Now()
	if err := n.sender.Send(n.msg); err != nil {
		return nil, err
	}
	n.sched.Run()
	d.drain, d.cpu, d.allocs = time.Since(start), cpuClock(clockProcessCPU)-c0, ac.read()-a0
	heap.sample()
	n.sender.Close()
	n.field.Close()

	for g := 0; g < groups; g++ {
		if doneAt[g] == 0 || first[g] == 0 {
			d.lat = append(d.lat, math.Inf(1))
			continue
		}
		d.lat = append(d.lat, float64(doneAt[g]-first[g])/1e6)
	}
	d.stats, d.sstats = n.field.Stats(), n.sender.Stats()
	d.done = d.stats.GroupsDone
	if !n.field.Complete() && d.done == groups {
		d.done = groups - 1 // all groups counted but no FIN: the transfer did not finish
	}
	d.groupTx = n.field.GroupTx()
	d.frames = n.stap.frames
	d.events = registryValue(n.reg, `simnet_events_total{result="run"}`)
	return d, nil
}

// registryValue reads one counter or gauge series from reg by series id.
func registryValue(reg *metrics.Registry, id string) float64 {
	var buf bytes.Buffer
	if reg == nil || reg.WriteJSON(&buf) != nil {
		return 0
	}
	var m map[string]any
	if json.Unmarshal(buf.Bytes(), &m) != nil {
		return 0
	}
	v, _ := m[id].(float64)
	return v
}

func runField(cfg runCfg) (*outcome, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer("field_1e6", cfg.base, 100_000)
	}
	heap, ac := newHeapSampler(), newAllocCounter()
	groups := fieldGroups
	if cfg.probe {
		groups = fieldProbeG
	}
	out := &outcome{correct: true, layers: map[string]float64{}}
	var lat latencies
	var setups, all, tx, goodput, pktsPerS, groupsPerS, cpuPerMB []float64
	var drain time.Duration
	var frames int64
	var nGroups, dataParity, naks, supp, maxActive int
	var allocs uint64
	var events float64
	var draws, losses, shardN, ctlN int64
	start := time.Now()
	for i := 0; ; i++ {
		d, err := runFieldDrain(cfg.seed*1000+int64(i), groups, tr, heap, ac)
		if err != nil {
			return nil, err
		}
		out.attempted += d.groups
		out.failed += d.groups - d.done
		if d.done < d.groups {
			out.correct = false // field.Complete() failed
		}
		setups = append(setups, d.setup.Seconds())
		lat.add(d.lat)
		all = append(all, d.lat...)
		for _, t := range d.groupTx {
			tx = append(tx, float64(t)/fieldK)
		}
		mb, secs := float64(d.groups*fieldK*fieldShard)/1e6, d.cpu.Seconds()
		goodput = append(goodput, mb/secs)
		pktsPerS = append(pktsPerS, float64(d.frames)/secs)
		groupsPerS = append(groupsPerS, float64(fieldR)*float64(d.groups)/secs)
		cpuPerMB = append(cpuPerMB, d.cpu.Seconds()*1e3/mb)
		drain += d.drain
		frames += d.frames
		nGroups += d.groups
		dataParity += d.sstats.DataTx + d.sstats.ParityTx
		naks += int(d.stats.NakTx)
		supp += int(d.stats.NakSupp)
		if d.stats.MaxActive > maxActive {
			maxActive = d.stats.MaxActive
		}
		allocs += d.allocs
		events += d.events
		if d.pop != nil {
			draws += d.pop.calls
			losses += d.pop.losses
		}
		shardN += d.shardN
		ctlN += d.ctlN
		el := time.Since(start).Seconds()
		if cfg.probe || (el >= cfg.seconds && (!cfg.tail || nGroups >= fieldMinG)) || el >= fieldMaxSecs {
			break
		}
	}
	// E[M] against the closed form, over every group of the run.
	var sum, sq float64
	for _, v := range tx {
		sum += v
		sq += v * v
	}
	n := float64(len(tx))
	em := sum / n
	se := math.Sqrt((sq/n - em*em) / (n - 1))
	want := model.ExpectedTxIntegratedFinite(fieldK, fieldH, fieldA, fieldR, fieldP)
	out.attempted++ // the run's E[M] reconciliation
	if math.Abs(em-want) > 3*se {
		out.failed++
		out.notes = append(out.notes, spreadNote("sender_pkts_per_s", pktsPerS), spreadNote("cpu_ms_per_MB", cpuPerMB))
		out.notes = append(out.notes, fmt.Sprintf("field_1e6: E[M] %.5f outside 3 SE (%.5f) of the model's %.5f", em, se, want))
	}
	// A 100-group drain supports its own p50 but not a p99, so the p99
	// pools the run's drains.
	p50 := slowCost(lat.p50)
	p99, ok := percentile(all, 0.99)
	if !ok && cfg.tail {
		return nil, fmt.Errorf("field_1e6: %d latency samples cannot support p99", lat.n)
	}
	out.e2e = map[string]float64{
		"setup_s":               median(setups),
		"goodput_MBps":          slowRate(goodput),
		"sender_pkts_per_s":     slowRate(pktsPerS),
		"receiver_groups_per_s": slowRate(groupsPerS),
		"group_latency_p50_ms":  p50,
		"group_latency_p99_ms":  p99,
		"cpu_ms_per_MB":         slowCost(cpuPerMB),
		"em":                    float64(dataParity) / float64(nGroups*fieldK),
		"peak_heap_MB":          heap.peakMB(),
	}
	out.layers["core.sender.allocs_per_pkt"] = float64(allocs) / float64(frames)
	if cfg.traced {
		pump, srx := tr.get(kPump), tr.get(kSenderRx)
		shard, ctl, timer := tr.get(kFieldShard), tr.get(kFieldCtl), tr.get(kFieldTimer)
		draw := tr.get(kDraw)
		inSpans := pump.total + srx.total + shard.total + ctl.total + timer.total
		out.layers["core.sender.busy_us_per_pkt"] = (pump.totalUs() + srx.totalUs()) / float64(frames)
		out.layers["core.sender.repair_pkts_per_group"] = float64(dataParity-nGroups*(fieldK+fieldA)) / float64(nGroups)
		out.layers["field.data_us_per_pkt"] = shard.selfUs() / float64(shardN)
		out.layers["field.control_us_per_pkt"] = ctl.selfUs() / float64(ctlN)
		out.layers["field.naks_per_group"] = float64(naks) / float64(nGroups)
		out.layers["field.nak_suppressed_ratio"] = ratio(float64(supp), float64(naks+supp))
		out.layers["field.max_active"] = float64(maxActive)
		out.layers["loss.draw_us_per_call"] = draw.totalUs() / float64(draws)
		out.layers["loss.losses_per_draw"] = float64(losses) / float64(draws)
		out.layers["simnet.events_per_group"] = events / float64(nGroups)
		out.layers["simnet.sched_us_per_event"] = float64(drain-inSpans) / 1e3 / events
		out.tracers = []*tracer{tr}
	}
	out.notes = append(out.notes, fmt.Sprintf(
		"field_1e6: %d groups, %d latency samples, E[M] %.5f +- %.5f (model %.5f), NAKs %d suppressed %d",
		nGroups, lat.n, em, se, want, naks, supp))
	return out, nil
}
