package main

import (
	"math/rand"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/gf256"
	"rmfec/internal/model"
	"rmfec/internal/packet"
)

// Layer microbenchmarks. They run in every traced run, whatever the
// workload: the GF(2^8) kernels and the codec are shared by all of them.

// generatorCoeffs returns the k*h generator coefficients of the RS code at
// (k, h): parity j of unit vector e_i is coefficient (j, i).
func generatorCoeffs(k, h int) ([]byte, error) {
	code, err := core.CodecByID(packet.CodecRS, 0, k, h, 1)
	if err != nil {
		return nil, err
	}
	data := make([][]byte, k)
	for i := range data {
		data[i] = []byte{0}
	}
	var out []byte
	for i := 0; i < k; i++ {
		data[i][0] = 1
		for j := 0; j < h; j++ {
			p, err := code.EncodeParity(j, data)
			if err != nil {
				return nil, err
			}
			out = append(out, p[0])
		}
		data[i][0] = 0
	}
	return out, nil
}

// timeLoop repeats fn until at least minDur has passed and returns the
// median duration of one call over five such rounds.
func timeLoop(minDur time.Duration, fn func()) time.Duration {
	var per []float64
	for r := 0; r < 5; r++ {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < minDur {
			fn()
			n++
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return time.Duration(median(per))
}

// gfKernels measures gf256.MulAddSlice cycling through the k=20, h=5
// generator's coefficients over 1 KiB shards (the working set the encoder
// meets), and gf256.AddSlice, both in MB of source processed per second.
func gfKernels(seed int64) (muladdMBps, xorMBps float64) {
	coeffs, err := generatorCoeffs(encK, encH)
	if err != nil {
		return 0, 0
	}
	rng := rand.New(rand.NewSource(seed))
	src := make([][]byte, len(coeffs))
	for i := range src {
		src[i] = make([]byte, encShard)
		rng.Read(src[i])
	}
	dst := make([]byte, encShard)
	perMul := timeLoop(30*time.Millisecond, func() {
		for i, c := range coeffs {
			gf256.MulAddSlice(c, src[i], dst)
		}
	})
	perXor := timeLoop(30*time.Millisecond, func() {
		for i := range coeffs {
			gf256.AddSlice(src[i], dst)
		}
	})
	mb := float64(len(coeffs)*encShard) / 1e6
	return mb / perMul.Seconds(), mb / perXor.Seconds()
}

// codecCosts measures one k=20, h=5 group encode (EncodeBlocks over 1 KiB
// shards) and one udp-workload group decode: k=20, h=20 with the data
// erasures a 5% Bernoulli loss leaves in groups that need a decode, each
// replaced by the next parity.
func codecCosts(seed int64) (encodeUs, decodeUs float64) {
	rng := rand.New(rand.NewSource(seed))
	shards := func(n int) [][]byte {
		s := make([][]byte, n)
		for i := range s {
			s[i] = make([]byte, encShard)
			rng.Read(s[i])
		}
		return s
	}
	enc, err := core.CodecByID(packet.CodecRS, 0, encK, encH, encShard)
	if err != nil {
		return 0, 0
	}
	data, parity := shards(encK), shards(encH)
	perEnc := timeLoop(30*time.Millisecond, func() { _ = enc.EncodeBlocks(data, parity) })

	dec, err := core.CodecByID(packet.CodecRS, 0, udpK, udpH, encShard)
	if err != nil {
		return 0, 0
	}
	full := shards(udpK + udpH)
	if err := dec.EncodeBlocks(full[:udpK], full[udpK:]); err != nil {
		return 0, 0
	}
	// 64 erasure patterns drawn from the workload's loss rate, conditioned
	// on at least one lost data shard (otherwise no decode runs).
	var patterns [][]int
	for len(patterns) < 64 {
		var lost []int
		for i := 0; i < udpK; i++ {
			if rng.Float64() < udpLoss {
				lost = append(lost, i)
			}
		}
		if len(lost) > 0 {
			patterns = append(patterns, lost)
		}
	}
	work := make([][]byte, udpK+udpH)
	next := 0
	perDec := timeLoop(30*time.Millisecond, func() {
		lost := patterns[next%len(patterns)]
		next++
		copy(work, full[:udpK])
		for i := udpK; i < len(work); i++ {
			work[i] = nil
		}
		for j, i := range lost {
			work[i] = full[i][:0] // rebuilt in place
			work[udpK+j] = full[udpK+j]
		}
		_ = dec.Reconstruct(work)
	})
	return float64(perEnc) / 1e3, float64(perDec) / 1e3
}

// meanErasures is the mean data-shard loss count of a group that needs a
// decode at loss rate p: E[L | L >= 1] for L ~ Binomial(k, p).
func meanErasures(k int, p float64) float64 {
	pNone := 1.0
	for i := 0; i < k; i++ {
		pNone *= 1 - p
	}
	return float64(k) * p / (1 - pNone)
}

// modelPredict returns model.NPRates' predicted send and receive
// processing time per source packet, in microseconds, for measured
// Section-5 timing constants tm.
func modelPredict(k, r int, p float64, tm model.Timing) (sendUs, recvUs float64, ok bool) {
	if tm.Validate() != nil {
		return 0, 0, false
	}
	rates := model.NPRates(k, r, p, tm, false)
	return 1000 / rates.Send, 1000 / rates.Recv, true
}
