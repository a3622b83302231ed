// Command bench runs the repository's performance gate and emits a
// machine-readable snapshot (BENCH_PR10.json) for the perf trajectory:
// GF(2^8) kernel throughput against the retained scalar reference,
// encode/decode packet rates of the RSE coder at the paper's k=7,h=7 and
// k=20,h=5 operating points, Monte-Carlo engine sample rates (sparse
// engines vs the retained pre-PR dense engines) at R = 10^4 and 10^6,
// the end-to-end `figures -fig all -quick` wall-clock, the NP loopback
// tier (np.go): sender packets/s through an in-process loopback Env,
// pipelined (encode-ahead pool + pooled frames + MulticastBatch) against
// the retained pre-PR serial transmit path, the per-core encode scaling
// sweep (GOMAXPROCS 1/2/4/8 capped at the host's CPU count, with
// row-sharded parallel encode; skipped with a skipped_insufficient_cpus
// marker on single-CPU hosts, which leave no curve to measure),
// measured syscalls/pkt on a real multicast socket (sendmmsg batch path
// vs per-frame write) — the PR-8 receiver-field tier (field.go): full NP
// transfers fronting R = 1e4..1e6 simulated receivers through one
// struct-of-arrays field.Field with aggregated NAK feedback, in
// receivers per second of wall-clock against a per-instance
// core.Receiver baseline — and, new in PR 10, the codec-portfolio tier
// (codec.go): full-group encode µs/pkt of the XOR rectangular codec
// against the Reed-Solomon incumbent at the ladder's low-h working
// points, plus the repair-packet count of one scattered-loss field
// scenario served by network-coded retransmission vs the parity budget
// and exhaustion carousel.
//
//	go run ./cmd/bench                    # writes BENCH_PR10.json
//	go run ./cmd/bench -out - -runs 3     # quick run to stdout
//	go run ./cmd/bench -np-only -runs 1   # NP loopback smoke (check.sh)
//	go run ./cmd/bench -codec-only -runs 1 -out -   # codec-portfolio smoke
//	go run ./cmd/bench -transcript -depth 0   # sender transcript hash
//	go run ./cmd/bench -transcript -depth 8 -shards 4   # sharded hash
//	go run ./cmd/bench -np-only -cpuprofile np.pprof    # profile NP tiers
//
// Each metric is the median of -runs testing.Benchmark passes, because
// shared hosts are noisy and a single pass can swing 2x in either
// direction; every speedup field pairs measurements from the same
// process invocation. -cpuprofile/-memprofile capture pprof data over
// whichever tiers run, like the same flags on cmd/figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"rmfec/internal/figures"
	"rmfec/internal/gf256"
	"rmfec/internal/loss"
	"rmfec/internal/metrics"
	"rmfec/internal/rse"
	"rmfec/internal/sim"
)

const shardBytes = 1024

type kernelStats struct {
	MulAddMBs       float64 `json:"muladd_mb_s"`
	MulAddScalarMBs float64 `json:"muladd_scalar_mb_s"`
	MulAddSpeedup   float64 `json:"muladd_speedup"`
	XorMBs          float64 `json:"xor_mb_s"`
	XorScalarMBs    float64 `json:"xor_scalar_mb_s"`
	XorSpeedup      float64 `json:"xor_speedup"`
}

type codecStats struct {
	K              int     `json:"k"`
	H              int     `json:"h"`
	EncodePktsS    float64 `json:"encode_pkts_s"`
	DecodePktsS    float64 `json:"decode_pkts_s"`
	DecodeAllocsOp int64   `json:"decode_allocs_per_op"`
}

type simStats struct {
	Engine         string  `json:"engine"`
	R              int     `json:"r"`
	P              float64 `json:"p"`
	SparseSamplesS float64 `json:"sparse_samples_s"`
	DenseSamplesS  float64 `json:"dense_samples_s"`
	Speedup        float64 `json:"speedup"`
}

type snapshot struct {
	PR                  int              `json:"pr"`
	Timestamp           string           `json:"timestamp"`
	GoVersion           string           `json:"go_version"`
	GOOS                string           `json:"goos"`
	GOARCH              string           `json:"goarch"`
	HostCPUs            int              `json:"host_cpus"`
	ShardBytes          int              `json:"shard_bytes"`
	Runs                int              `json:"runs"`
	Kernels             kernelStats      `json:"kernels,omitempty"`
	Codec               []codecStats     `json:"codec,omitempty"`
	Sim                 []simStats       `json:"sim,omitempty"`
	NP                  []npStats        `json:"np"`
	NPScaling           []scalingStats   `json:"np_scaling"`
	NPScalingSkipped    string           `json:"np_scaling_skipped,omitempty"`
	NPSyscalls          *sysStats        `json:"np_syscalls,omitempty"`
	NPField             []fieldStats     `json:"np_field,omitempty"`
	CodecPortfolio      []portfolioStats `json:"codec_portfolio,omitempty"`
	NcRepair            *ncRepairStats   `json:"nc_repair,omitempty"`
	FiguresQuickSeconds float64          `json:"figures_quick_seconds,omitempty"`
	FiguresQuickSamples int              `json:"figures_quick_samples,omitempty"`
}

// medianRate runs fn under testing.Benchmark `runs` times and returns the
// median bytes/s scaled from unitsPerOp, plus the allocs/op of the median
// run's result.
func medianRate(runs int, unitsPerOp float64, fn func(b *testing.B)) (rate float64, allocs int64) {
	type sample struct {
		rate   float64
		allocs int64
	}
	samples := make([]sample, 0, runs)
	for i := 0; i < runs; i++ {
		r := testing.Benchmark(fn)
		if r.N == 0 || r.T <= 0 {
			continue
		}
		samples = append(samples, sample{
			rate:   unitsPerOp * float64(r.N) / r.T.Seconds(),
			allocs: r.AllocsPerOp(),
		})
	}
	if len(samples) == 0 {
		return 0, 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].rate < samples[j].rate })
	m := samples[len(samples)/2]
	return m.rate, m.allocs
}

// onePass measures fn once under testing.Benchmark and returns MB/s.
func onePass(fn func()) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	if r.N == 0 || r.T <= 0 {
		return 0
	}
	return shardBytes * float64(r.N) / r.T.Seconds() / 1e6
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	return v[len(v)/2]
}

// kernelBench measures the word-parallel kernels against the scalar
// reference. Each pass measures a kernel and its reference back to back
// and the speedup is the median of the per-pass ratios: adjacent
// measurements share the host's frequency/steal conditions, so paired
// ratios are far more stable than a ratio of independently noisy medians.
func kernelBench(runs int) kernelStats {
	src := make([]byte, shardBytes)
	dst := make([]byte, shardBytes)
	rand.New(rand.NewSource(2)).Read(src)
	const c = 0x57

	var st kernelStats
	var maRates, maRefRates, maRatios []float64
	var xRates, xRefRates, xRatios []float64
	for i := 0; i < runs; i++ {
		ma := onePass(func() { gf256.MulAddSlice(c, src, dst) })
		maRef := onePass(func() { gf256.MulAddSliceScalar(c, src, dst) })
		x := onePass(func() { gf256.AddSlice(src, dst) })
		xRef := onePass(func() { gf256.MulAddSliceScalar(1, src, dst) })
		maRates = append(maRates, ma)
		xRates = append(xRates, x)
		maRefRates = append(maRefRates, maRef)
		xRefRates = append(xRefRates, xRef)
		if maRef > 0 {
			maRatios = append(maRatios, ma/maRef)
		}
		if xRef > 0 {
			xRatios = append(xRatios, x/xRef)
		}
	}
	st.MulAddMBs = median(maRates)
	st.MulAddScalarMBs = median(maRefRates)
	st.MulAddSpeedup = median(maRatios)
	st.XorMBs = median(xRates)
	st.XorScalarMBs = median(xRefRates)
	st.XorSpeedup = median(xRatios)
	return st
}

func codecBench(runs, k, h int, reg *metrics.Registry) codecStats {
	code := rse.MustNew(k, h)
	code.Instrument(rse.RegisterInstruments(reg))
	rng := rand.New(rand.NewSource(9))
	shards := make([][]byte, k+h)
	for i := range shards {
		shards[i] = make([]byte, shardBytes)
		if i < k {
			rng.Read(shards[i])
		}
	}
	if err := code.Encode(shards[:k], shards[k:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	st := codecStats{K: k, H: h}
	// Encode rate in the units of Fig 1: data packets processed per
	// second while producing h parities per k.
	st.EncodePktsS, _ = medianRate(runs, float64(k), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := code.Encode(shards[:k], shards[k:]); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Decode rate: lose min(h,k) data packets each op, reconstruct from
	// the rest. Recycled zero-length buffers keep it on the steady-state
	// path (cached inversion, no allocation).
	lose := h
	if lose > k {
		lose = k
	}
	var allocs int64
	st.DecodePktsS, allocs = medianRate(runs, float64(k), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < lose; j++ {
				shards[j] = shards[j][:0]
			}
			if err := code.Reconstruct(shards); err != nil {
				b.Fatal(err)
			}
		}
	})
	st.DecodeAllocsOp = allocs
	return st
}

// samplesPerSec measures samplesPerOp Monte-Carlo samples per op and
// returns the median samples/s over `passes` testing.Benchmark runs.
func samplesPerSec(passes, samplesPerOp int, sample func()) float64 {
	var rates []float64
	for i := 0; i < passes; i++ {
		r := testing.Benchmark(func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				sample()
			}
		})
		if r.N > 0 && r.T > 0 {
			rates = append(rates, float64(r.N*samplesPerOp)/r.T.Seconds())
		}
	}
	return median(rates)
}

// simGroups is how many Monte-Carlo samples each simBench op runs. The
// engines amortise their O(R) scratch allocation across the groups of one
// call, exactly as the figure runs do (samplesFor keeps >= 200 groups per
// point), so a single-group op would overstate the per-sample cost.
const simGroups = 8

// simBench measures the sparse engines (with the sparse Bernoulli draw
// kernel) against the retained pre-PR dense engines (with the dense
// per-receiver Bernoulli population) — the honest before/after pair. The
// speedup is the median of per-pass ratios, like kernelBench.
func simBench(runs int) []simStats {
	const p = 0.01
	type engine struct {
		name   string
		sparse func(pop loss.Population)
		dense  func(pop loss.Population)
	}
	engines := []engine{
		{
			name:   "NoFEC",
			sparse: func(pop loss.Population) { sim.NoFEC(pop, sim.PaperTiming, simGroups) },
			dense:  func(pop loss.Population) { sim.DenseNoFEC(pop, sim.PaperTiming, simGroups) },
		},
		{
			name:   "Layered(7,1)",
			sparse: func(pop loss.Population) { sim.Layered(pop, 7, 1, sim.PaperTiming, simGroups) },
			dense:  func(pop loss.Population) { sim.DenseLayered(pop, 7, 1, sim.PaperTiming, simGroups) },
		},
	}
	var out []simStats
	for _, r := range []int{10_000, 1_000_000} {
		sparsePop := loss.NewBernoulliPopulation(r, p, rand.New(rand.NewSource(3)))
		densePop := loss.NewIndependentBernoulli(r, p, rand.New(rand.NewSource(4)))
		for _, eng := range engines {
			fmt.Fprintf(os.Stderr, "bench: measuring sim %s R=%d...\n", eng.name, r)
			st := simStats{Engine: eng.name, R: r, P: p}
			var sparseRates, denseRates, ratios []float64
			for i := 0; i < runs; i++ {
				s := samplesPerSec(1, simGroups, func() { eng.sparse(sparsePop) })
				d := samplesPerSec(1, simGroups, func() { eng.dense(densePop) })
				sparseRates = append(sparseRates, s)
				denseRates = append(denseRates, d)
				if d > 0 {
					ratios = append(ratios, s/d)
				}
			}
			st.SparseSamplesS = median(sparseRates)
			st.DenseSamplesS = median(denseRates)
			st.Speedup = median(ratios)
			out = append(out, st)
		}
	}
	return out
}

// figuresQuickBench times one end-to-end quick regeneration of every
// figure (the smoke run of scripts/check.sh) and reports wall-clock plus
// the Monte-Carlo sample total behind it.
func figuresQuickBench() (seconds float64, samples int) {
	opt := figures.Options{Seed: 1997, Quick: true}
	start := time.Now()
	for _, id := range figures.IDs() {
		fig, err := figures.Generate(id, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		samples += fig.SimSamples
	}
	return time.Since(start).Seconds(), samples
}

func main() {
	var (
		out        = flag.String("out", "BENCH_PR10.json", "output path, or - for stdout")
		runs       = flag.Int("runs", 5, "benchmark passes per metric (median wins)")
		showMet    = flag.Bool("metrics", false, "print an end-of-run metrics snapshot (Prometheus text) to stderr")
		npGroups   = flag.Int("np-groups", 600, "transmission groups per NP loopback drain")
		npOnly     = flag.Bool("np-only", false, "run only the NP loopback tiers (check.sh smoke)")
		codecOnly  = flag.Bool("codec-only", false, "run only the codec-portfolio and NC-repair tiers (check.sh smoke)")
		transcript = flag.Bool("transcript", false, "print the sender transcript hash of a fixed transfer and exit")
		adaptFEC   = flag.Bool("adaptive-fec", false, "add an NP loopback scenario draining through the adaptive FEC control plane (wire v2)")
		adaptScen  = flag.Bool("adapt-scenario", false, "run the adaptive loss-shift scenarios, write convergence TSVs and exit (check.sh smoke)")
		adaptOut   = flag.String("adapt-out", "results", "output directory for -adapt-scenario TSVs")
		depth      = flag.Int("depth", 0, "pipeline depth for -transcript (0 = serial reference path)")
		shards     = flag.Int("shards", 0, "encode shards for -transcript (0 = engine default)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measured tiers to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *transcript {
		fmt.Println(transcriptHash(*depth, *shards))
		return
	}

	if *adaptScen {
		adaptScenarioMain(*adaptOut)
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalBench(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalBench(err)
		}
		defer pprof.StopCPUProfile()
	}

	// A nil registry (flag off) turns the codec instruments into no-ops,
	// which also keeps the measured hot path identical to production use.
	var reg *metrics.Registry
	if *showMet {
		reg = metrics.NewRegistry()
	}

	snap := snapshot{
		PR:         10,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		HostCPUs:   runtime.NumCPU(),
		ShardBytes: shardBytes,
		Runs:       *runs,
	}
	if !*npOnly && !*codecOnly {
		fmt.Fprintln(os.Stderr, "bench: measuring GF(2^8) kernels...")
		snap.Kernels = kernelBench(*runs)
		for _, p := range []struct{ k, h int }{{7, 7}, {20, 5}} {
			fmt.Fprintf(os.Stderr, "bench: measuring rse codec k=%d h=%d...\n", p.k, p.h)
			snap.Codec = append(snap.Codec, codecBench(*runs, p.k, p.h, reg))
		}
		snap.Sim = simBench(*runs)
	}
	if !*codecOnly {
		snap.NP = npBench(*runs, *npGroups)
		if *adaptFEC {
			snap.NP = append(snap.NP, adaptiveNPBench(*runs, *npGroups))
		}
		snap.NPScaling, snap.NPScalingSkipped = scalingBench(*runs, *npGroups)
		snap.NPSyscalls = syscallBench()
	}
	if !*npOnly {
		snap.CodecPortfolio = codecPortfolioBench(*runs)
		nc := ncRepairBench()
		snap.NcRepair = &nc
	}
	if !*npOnly && !*codecOnly {
		snap.NPField = fieldBench(*runs)
		fmt.Fprintln(os.Stderr, "bench: timing figures -fig all -quick...")
		snap.FiguresQuickSeconds, snap.FiguresQuickSamples = figuresQuickBench()
	}

	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatalBench(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalBench(err)
		}
		f.Close()
	}
	if *out == "-" {
		os.Stdout.Write(enc)
		printMetrics(reg)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	simSummary := ""
	for _, s := range snap.Sim {
		if s.R == 1_000_000 {
			simSummary += fmt.Sprintf(", %s@1e6 %.0fx", s.Engine, s.Speedup)
		}
	}
	npSummary := ""
	for _, n := range snap.NP {
		npSummary += fmt.Sprintf(", np/%s %.2fx", n.Scenario, n.Speedup)
	}
	for _, sc := range snap.NPScaling {
		npSummary += fmt.Sprintf(", scale@%d %.2fx", sc.Procs, sc.SpeedupVsDepth0)
	}
	if snap.NPScalingSkipped != "" {
		npSummary += ", scaling " + snap.NPScalingSkipped
	}
	if snap.NPSyscalls != nil {
		npSummary += fmt.Sprintf(", syscalls/pkt %.3f", snap.NPSyscalls.BatchSyscallsPkt)
	}
	for _, fs := range snap.NPField {
		npSummary += fmt.Sprintf(", field@%.0e %.2gM recv/s", float64(fs.R), fs.ReceiversPerSec/1e6)
		if fs.SpeedupVsInstances > 0 {
			npSummary += fmt.Sprintf(" (%.0fx vs instances)", fs.SpeedupVsInstances)
		}
	}
	for _, ps := range snap.CodecPortfolio {
		npSummary += fmt.Sprintf(", rect k=%d h=%d %.1fx rs", ps.K, ps.H, ps.SpeedupVsRS)
	}
	if snap.NcRepair != nil {
		npSummary += fmt.Sprintf(", nc %d vs carousel %d repairs", snap.NcRepair.NcRepairPkts, snap.NcRepair.BaseRepairPkts)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (muladd %.2fx scalar, xor %.2fx%s%s, figures-quick %.1fs)\n",
		*out, snap.Kernels.MulAddSpeedup, snap.Kernels.XorSpeedup, simSummary, npSummary, snap.FiguresQuickSeconds)
	printMetrics(reg)
}

// printMetrics dumps the codec instrument snapshot accumulated across the
// benchmark passes (rse_* symbol throughput and inversion-cache hits).
func printMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "# bench: end-of-run metrics snapshot")
	if err := reg.WritePrometheus(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
}
