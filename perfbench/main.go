// Command perfbench is rmfec's end-to-end and per-layer benchmark. It
// drives the NP protocol engines through their public package APIs on
// three workloads (see README.md for why each was chosen):
//
//	udp_loopback  a paced NP transfer over real loopback UDP multicast to
//	              four streaming receivers behind 5% injected loss
//	encode_bound  the sender's processing rate: a closed-loop drain of a
//	              k=20, h=a=5 transfer into a counting loopback Env
//	field_1e6     a million simulated receivers (field.Field) on simnet
//
// Usage (from the repository root, through perfbench/run.sh):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Inputs (payloads, loss draws, session ids) derive from --seed. The last
// line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
// set; with --trace 1 the run repeats the workload untraced and traced,
// probes the other workloads' layers briefly, and reports the per-layer
// set, the tracing overhead among them, and dumps the retained spans as
// JSON lines under .bench_build/traces/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// metricDef is a reported metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd is the --trace 0 metric set; every workload reports all of it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_MBps", "MB/s"},
	{"sender_pkts_per_s", "1/s"},
	{"receiver_groups_per_s", "1/s"},
	{"group_latency_p50_ms", "ms"},
	{"group_latency_p99_ms", "ms"},
	{"cpu_ms_per_MB", "ms/MB"},
	{"em", "tx/pkt"},
	{"peak_heap_MB", "MB"},
}

// perLayer is the --trace 1 metric set. A layer a workload does not run
// is measured by a short probe of a workload that does (see traced).
var perLayer = []metricDef{
	{"gf256.muladd_MBps", "MB/s"},
	{"gf256.xor_MBps", "MB/s"},
	{"codec.encode_us_per_group", "us"},
	{"codec.decode_us_per_group", "us"},
	{"codec.decodes_per_group", "count"},
	{"core.pipeline.encode_ahead_hit_ratio", "ratio"},
	{"core.sender.busy_us_per_pkt", "us"},
	{"core.sender.allocs_per_pkt", "count"},
	{"core.sender.pace_lag_p99_ms", "ms"},
	{"core.sender.repair_pkts_per_group", "count"},
	{"core.receiver.busy_us_per_pkt", "us"},
	{"core.receiver.naks_per_group", "count"},
	{"core.receiver.nak_suppressed_ratio", "ratio"},
	{"udpcast.tx_us_per_frame", "us"},
	{"udpcast.syscalls_per_frame", "count"},
	{"udpcast.frames_per_batch", "count"},
	{"udpcast.kernel_drop_ratio", "ratio"},
	{"field.data_us_per_pkt", "us"},
	{"field.control_us_per_pkt", "us"},
	{"field.naks_per_group", "count"},
	{"field.nak_suppressed_ratio", "ratio"},
	{"field.max_active", "count"},
	{"loss.draw_us_per_call", "us"},
	{"loss.losses_per_draw", "count"},
	{"simnet.events_per_group", "count"},
	{"simnet.sched_us_per_event", "us"},
	{"model.send_pred_over_meas", "ratio"},
	{"model.recv_pred_over_meas", "ratio"},
	{"host.steal_ratio", "ratio"},
	{"host.calib_ns", "ns"},
	{"trace.overhead_ratio", "ratio"},
}

// runCfg is what one pass of a workload gets.
type runCfg struct {
	seed    int64
	seconds float64 // measurement budget; a pass may overrun it to reach its sample floor
	traced  bool
	probe   bool // a short fixed-size pass that only feeds per-layer metrics
	tail    bool // the end-to-end pass: run until the p99 latency has support
	base    time.Time
}

// outcome is one pass's result. e2e holds the end-to-end metrics, layers
// the per-layer ones this workload exercises (traced passes only).
type outcome struct {
	correct   bool
	attempted int
	failed    int
	e2e       map[string]float64
	layers    map[string]float64
	notes     []string
	tracers   []*tracer
}

type workload struct {
	name string
	run  func(runCfg) (*outcome, error)
}

var workloads = []workload{
	{"udp_loopback", runUDP},
	{"encode_bound", runEncode},
	{"field_1e6", runField},
}

func main() {
	name := flag.String("workload", "", "workload: udp_loopback, encode_bound or field_1e6")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := runCfg{seed: *seed, seconds: *seconds, tail: true, base: time.Now()}
	steal0 := readSteal()
	var out *outcome
	var err error
	if *trace == 0 {
		out, err = w.run(cfg)
	} else {
		out, err = traced(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	steal := steal0.ratioTo(readSteal())
	calib := calibNs()
	fmt.Printf("host: steal_ratio=%.4f calib_ns=%.0f\n", steal, calib)
	for _, n := range out.notes {
		fmt.Println(n)
	}
	defs, vals := endToEnd, out.e2e
	if *trace == 1 {
		out.layers["host.steal_ratio"] = steal
		out.layers["host.calib_ns"] = calib
		defs, vals = perLayer, out.layers
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := dumpTraces(path, out.tracers...); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: trace dump:", err)
			os.Exit(1)
		}
		fmt.Println("trace spans:", path)
	}
	if err := printResult(os.Stdout, out, defs, vals); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the final JSON line. Every metric in defs must be
// present and finite.
func printResult(f *os.File, out *outcome, defs []metricDef, vals map[string]float64) error {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s missing or not finite (%v)", d.name, v)
		}
		m[d.name] = metricValue{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.correct, out.attempted, out.failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", b)
	return err
}

// traced runs w untraced and then traced for half the budget each, so the
// tracing overhead is measured on the same host minutes, then probes the
// other workloads briefly (traced) for the layers w does not exercise.
// Per-layer values come from w's traced pass where w exercises the layer,
// from a probe otherwise; process-wide allocation counts come from the
// untraced pass, which the wrappers' timer closures do not inflate.
func traced(w *workload, cfg runCfg) (*outcome, error) {
	half := cfg
	half.seconds = cfg.seconds / 2
	half.tail = false
	plain, err := w.run(half)
	if err != nil {
		return nil, err
	}
	half.traced = true
	tr, err := w.run(half)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		correct:   plain.correct && tr.correct,
		attempted: plain.attempted + tr.attempted,
		failed:    plain.failed + tr.failed,
		layers:    map[string]float64{},
		tracers:   tr.tracers,
	}
	for _, o := range workloads {
		if o.name == w.name {
			continue
		}
		probe := runCfg{seed: cfg.seed, seconds: 1, traced: true, probe: true, base: cfg.base}
		po, err := o.run(probe)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", o.name, err)
		}
		out.correct = out.correct && po.correct
		for k, v := range po.layers {
			out.layers[k] = v
		}
		out.notes = append(out.notes, fmt.Sprintf("%s probe: attempted %d failed %d", o.name, po.attempted, po.failed))
	}
	for k, v := range tr.layers {
		out.layers[k] = v
	}
	if a, ok := plain.layers["core.sender.allocs_per_pkt"]; ok {
		out.layers["core.sender.allocs_per_pkt"] = a
	}
	out.layers["trace.overhead_ratio"] = ratio(tr.e2e["cpu_ms_per_MB"], plain.e2e["cpu_ms_per_MB"])
	out.layers["gf256.muladd_MBps"], out.layers["gf256.xor_MBps"] = gfKernels(cfg.seed)
	out.layers["codec.encode_us_per_group"], out.layers["codec.decode_us_per_group"] = codecCosts(cfg.seed)
	out.notes = append(out.notes, plain.notes...)
	out.notes = append(out.notes, tr.notes...)
	out.notes = append(out.notes, fmt.Sprintf("trace overhead: cpu_ms_per_MB traced %.4g / untraced %.4g",
		tr.e2e["cpu_ms_per_MB"], plain.e2e["cpu_ms_per_MB"]))
	return out, nil
}

// allocCounter reads the cumulative heap allocation count without
// stopping the world.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s)
	if a.s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return a.s[0].Value.Uint64()
}

// stealSample is one reading of the aggregate cpu line of /proc/stat.
type stealSample struct{ steal, total uint64 }

func readSteal() stealSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	var s stealSample
	var vals [10]uint64
	n, _ := fmt.Sscanf(string(b), "cpu %d %d %d %d %d %d %d %d %d %d",
		&vals[0], &vals[1], &vals[2], &vals[3], &vals[4], &vals[5], &vals[6], &vals[7], &vals[8], &vals[9])
	for i := 0; i < n && i < 8; i++ { // guest time (fields 9-10) is already in user
		s.total += vals[i]
	}
	if n >= 8 {
		s.steal = vals[7]
	}
	return s
}

// ratioTo returns the share of CPU time stolen by the hypervisor between
// s and later.
func (s stealSample) ratioTo(later stealSample) float64 {
	return ratio(float64(later.steal-s.steal), float64(later.total-s.total))
}

var calibSink uint64

// calibNs times a fixed integer loop (median of 5): a host-speed probe
// that moves when the host is throttled or contended, not when the code
// under test changes.
func calibNs() float64 {
	var ts []float64
	for r := 0; r < 5; r++ {
		x := uint64(0x9e3779b97f4a7c15)
		t0 := time.Now()
		for i := 0; i < 1<<21; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds()))
		calibSink += x
	}
	return median(ts)
}
