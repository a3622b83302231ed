package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// xorRef is the scalar reference of the XOR kernels, which ignore c.
func xorRef(_ byte, src, dst []byte) { MulAddSliceScalar(1, src, dst) }

// sliceKernels lists every public slice kernel, then the portable kernels
// behind them — called directly so the fallback stays tested on hosts
// where the AVX2 path takes the public kernels' vector prefix — each with
// the scalar reference it must match.
var sliceKernels = []struct {
	name string
	f    func(c byte, src, dst []byte)
	ref  func(c byte, src, dst []byte)
}{
	{"MulSlice", MulSlice, MulSliceScalar},
	{"MulAddSlice", MulAddSlice, MulAddSliceScalar},
	{"MulSliceCompact", MulSliceCompact, MulSliceScalar},
	{"MulAddSliceCompact", MulAddSliceCompact, MulAddSliceScalar},
	{"AddSlice", func(_ byte, src, dst []byte) { AddSlice(src, dst) }, xorRef},
	{"mulWords", mulWords, MulSliceScalar},
	{"mulAddWords", mulAddWords, MulAddSliceScalar},
	{"mulRow", mulRow, MulSliceScalar},
	{"mulAddRow", mulAddRow, MulAddSliceScalar},
	{"xorWords", func(_ byte, src, dst []byte) { xorWords(src, dst) }, xorRef},
}

// checkKernels runs every sliceKernels entry on src and dstBuf[off:off+len(src)]
// and reports the first whose result differs from its reference anywhere
// in dstBuf, so a kernel that writes past its slice is caught too.
func checkKernels(t *testing.T, c byte, src, dstBuf []byte, off int) {
	t.Helper()
	n := len(src)
	for _, k := range sliceKernels {
		want := append([]byte(nil), dstBuf...)
		k.ref(c, src, want[off:off+n])
		got := append([]byte(nil), dstBuf...)
		k.f(c, src, got[off:off+n])
		if !bytes.Equal(got, want) {
			t.Fatalf("%s(c=%#x, n=%d, dst offset %d) diverges from scalar", k.name, c, n, off)
		}
	}
}

// TestKernelsMatchScalar sweeps every slice kernel against the
// byte-at-a-time scalar reference across every coefficient, a ladder of
// lengths around the 8- and 32-byte loop boundaries (including lengths not
// divisible by 8, and lengths spanning many 32-byte vector iterations plus
// a tail) and several sub-word alignments of both src and dst.
func TestKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 255, 256, 1000, 1024, 1500, 2061}
	for _, n := range lengths {
		for _, align := range []int{0, 1, 3, 7} {
			backingSrc := make([]byte, n+align)
			dstBuf := make([]byte, n+align+8)
			for c := 0; c < 256; c++ {
				rng.Read(backingSrc)
				rng.Read(dstBuf)
				checkKernels(t, byte(c), backingSrc[align:], dstBuf, align)
			}
		}
	}
}

// FuzzKernels checks every slice kernel against the scalar reference on a
// random coefficient, length and src/dst offsets; the seeds cover the
// vector/tail split around 32-byte multiples.
func FuzzKernels(f *testing.F) {
	for _, seed := range []struct {
		c              byte
		n              uint16
		srcOff, dstOff uint8
	}{
		{0x57, 1024, 0, 0}, {0x02, 1500, 1, 5}, {0xff, 2061, 7, 3},
		{1, 95, 3, 0}, {0, 64, 0, 31}, {0x8e, 31, 2, 2}, {0x1d, 33, 0, 1},
	} {
		f.Add(seed.c, seed.n, seed.srcOff, seed.dstOff, int64(seed.n))
	}
	f.Fuzz(func(t *testing.T, c byte, n uint16, srcOff, dstOff uint8, seed int64) {
		ln, so, do := int(n)%4096, int(srcOff)%64, int(dstOff)%64
		rng := rand.New(rand.NewSource(seed))
		srcBuf := make([]byte, so+ln)
		dstBuf := make([]byte, do+ln+64)
		rng.Read(srcBuf)
		rng.Read(dstBuf)
		checkKernels(t, c, srcBuf[so:], dstBuf, do)
	})
}

// TestNibbleTablesConsistent pins the split-nibble identity the AVX2 kernel
// relies on: c*x == mulLo[c][x&15] ^ mulHi[c][x>>4] for every (c, x).
func TestNibbleTablesConsistent(t *testing.T) {
	for c := 0; c < 256; c++ {
		for x := 0; x < 256; x++ {
			want := Mul(byte(c), byte(x))
			got := mulLo[c][x&15] ^ mulHi[c][x>>4]
			if got != want {
				t.Fatalf("nibble split of %#x*%#x = %#x, want %#x", c, x, got, want)
			}
		}
	}
}

// TestKernelsIdenticalAlias checks the documented aliasing contract:
// src and dst may be the same slice.
func TestKernelsIdenticalAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{5, 32, 100} {
		for _, c := range []byte{0, 1, 2, 0x53} {
			buf := make([]byte, n)
			rng.Read(buf)
			want := append([]byte(nil), buf...)
			MulAddSliceScalar(c, want, want)
			got := append([]byte(nil), buf...)
			MulAddSlice(c, got, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("MulAddSlice self-alias (c=%#x, n=%d) diverges", c, n)
			}

			want = append([]byte(nil), buf...)
			MulSliceScalar(c, want, want)
			got = append([]byte(nil), buf...)
			MulSlice(c, got, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("MulSlice self-alias (c=%#x, n=%d) diverges", c, n)
			}
		}
	}
}

func TestAddSliceMatchesXor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 7, 8, 9, 33, 1024} {
		src := make([]byte, n)
		dst := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)
		want := make([]byte, n)
		for i := range want {
			want[i] = dst[i] ^ src[i]
		}
		AddSlice(src, dst)
		if !bytes.Equal(dst, want) {
			t.Fatalf("AddSlice(n=%d) wrong", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AddSlice length mismatch did not panic")
		}
	}()
	AddSlice(make([]byte, 3), make([]byte, 4))
}

// BenchmarkKernels is the micro-benchmark suite behind the Fig-1 hot path:
// the dispatched kernels (AVX2 where available) against the scalar
// reference they replaced, plus the portable pair-table kernel that is the
// fallback without AVX2.
func BenchmarkKernels(b *testing.B) {
	sizes := []int{64, 1024, 4096}
	const c = 0x57
	for _, n := range sizes {
		src := make([]byte, n)
		dst := make([]byte, n)
		rand.New(rand.NewSource(2)).Read(src)
		pairTableFor(c) // build outside the timed region
		name := func(op string) string { return fmt.Sprintf("%s/%dB", op, n) }
		run := func(op string, f func()) {
			b.Run(name(op), func(b *testing.B) {
				b.SetBytes(int64(n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f()
				}
			})
		}
		run("MulAdd", func() { MulAddSlice(c, src, dst) })
		run("MulAddScalarRef", func() { MulAddSliceScalar(c, src, dst) })
		run("MulAddPortable", func() { mulAddWords(c, src, dst) })
		run("Mul", func() { MulSlice(c, src, dst) })
		run("MulScalarRef", func() { MulSliceScalar(c, src, dst) })
		run("Xor", func() { AddSlice(src, dst) })
		run("XorScalarRef", func() { MulAddSliceScalar(1, src, dst) })
	}
}
