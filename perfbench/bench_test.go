package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/field"
	"rmfec/internal/loss"
)

// The wrappers must keep the interfaces the engines type-assert for, or a
// wrapped run would take a different code path than an unwrapped one.
var (
	_ core.BatchEnv         = (*tapBatchEnv)(nil)
	_ loss.SubsetPopulation = (*tapPop)(nil)
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{19, 0.50, false},
		{20, 0.50, true},
		{0, 0.50, false},
	} {
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(c.n - i)
		}
		v, ok := percentile(s, c.q)
		if ok != c.want {
			t.Errorf("n=%d q=%g: reported=%v, want %v", c.n, c.q, ok, c.want)
		}
		if ok && v != s[int(math.Ceil(c.q*float64(c.n)))-1] {
			t.Errorf("n=%d q=%g: value %g is not the nearest-rank quantile", c.n, c.q, v)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	// An undelivered repetition's +Inf stays +Inf, never NaN.
	inf := math.Inf(1)
	if got := slowCost([]float64{1, 2, inf, inf, inf}); !math.IsInf(got, 1) {
		t.Errorf("slowCost with +Inf samples = %g, want +Inf", got)
	}
	if got := quantile([]float64{1, 2, 3, inf, inf}, 0.5); got != 3 {
		t.Errorf("median beside +Inf samples = %g, want 3", got)
	}
}

func TestUndeliveredPairsFailAndExceedLimit(t *testing.T) {
	const groups = 300
	first := make([]time.Duration, groups)
	at := make([][]time.Duration, udpReceivers)
	for g := range first {
		first[g] = time.Duration(g+1) * time.Millisecond
	}
	for i := range at {
		at[i] = make([]time.Duration, groups)
		for g := range at[i] {
			at[i][g] = first[g] + 30*time.Millisecond
		}
	}
	// 20 of 1200 pairs undelivered: more than 1%, so the p99 falls on them.
	for g := 0; g < 20; g++ {
		at[g%udpReceivers][g] = 0
	}
	lat, undelivered := pairLatencies(first, at)
	if undelivered != 20 || len(lat) != udpReceivers*groups {
		t.Fatalf("undelivered = %d of %d samples, want 20 of %d", undelivered, len(lat), udpReceivers*groups)
	}
	p99, ok := percentile(lat, 0.99)
	if !ok || !math.IsInf(p99, 1) {
		t.Fatalf("p99 = %g (reported %v), want +Inf: undelivered pairs lie beyond any limit", p99, ok)
	}
	if p50, _ := percentile(lat, 0.50); p50 != 30 {
		t.Fatalf("p50 = %g ms, want 30", p50)
	}
}

// drainEncode runs one encode_bound transfer on a sink, wrapped in a traced
// tapEnv or not, and returns the engine's counters and the wire counts.
func drainEncode(t *testing.T, wrap bool) (core.SenderStats, [8]int) {
	t.Helper()
	sink := newSinkEnv(7, 3)
	var env core.Env = sink
	if wrap {
		env = wrapEnv(&tapEnv{inner: sink, tr: newTracer("t", time.Now(), 16), txKind: kTx, timerKind: kPump,
			onFrame: func([]byte) {}})
	}
	s, err := core.NewSender(env, encodeConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	msg := make([]byte, 40*encK*encShard)
	rand.New(rand.NewSource(7)).Read(msg)
	if err := s.Send(msg); err != nil {
		t.Fatal(err)
	}
	sink.drive()
	return s.Stats(), sink.byType
}

func TestWrappedEncodeMatchesUnwrapped(t *testing.T) {
	rawStats, rawWire := drainEncode(t, false)
	wStats, wWire := drainEncode(t, true)
	if rawStats != wStats || rawWire != wWire {
		t.Fatalf("wrapped run diverged:\n raw %+v %v\nwrap %+v %v", rawStats, rawWire, wStats, wWire)
	}
}

func TestWrappedFieldMatchesUnwrapped(t *testing.T) {
	run := func(tr *tracer, wrap bool) (core.SenderStats, field.Stats, []int) {
		n, err := newFieldNet(11, 5000, 15, tr, wrap)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.sender.Send(n.msg); err != nil {
			t.Fatal(err)
		}
		n.sched.Run()
		if !n.field.Complete() {
			t.Fatalf("transfer incomplete (wrapped %v)", wrap)
		}
		return n.sender.Stats(), n.field.Stats(), n.field.GroupTx()
	}
	rawS, rawF, rawTx := run(nil, false)
	wS, wF, wTx := run(newTracer("t", time.Now(), 16), true)
	if rawS != wS || rawF != wF {
		t.Fatalf("wrapped run diverged:\n raw %+v %+v\nwrap %+v %+v", rawS, rawF, wS, wF)
	}
	for g := range rawTx {
		if rawTx[g] != wTx[g] {
			t.Fatalf("group %d: %d arrivals wrapped, %d unwrapped", g, wTx[g], rawTx[g])
		}
	}
}
