package gf256

// Slice kernels.
//
// Every public slice kernel (MulSlice, MulAddSlice, their Compact forms
// and AddSlice) splits its input in two:
//
//   - The longest prefix whose length is a multiple of 32 bytes runs on
//     the AVX2 assembly of kernels_amd64.s, when package init found AVX2
//     and OS-enabled YMM state (useAVX2). The multiply kernels use the
//     split-nibble identity c*x = c*(x & 0x0f) ^ c*(x & 0xf0): the
//     coefficient's two 16-entry tables (mulLo, mulHi, 32 B per
//     coefficient) sit in one register each and VPSHUFB looks up 32
//     nibbles per instruction, so the working set is tiny whatever the
//     number of distinct coefficients. The c == 1 case is a VPXOR.
//
//   - The rest — the whole slice off amd64 or without AVX2, else a tail
//     of under 32 bytes — runs the portable Go kernels below. Their
//     general-coefficient path uses pair tables: for each coefficient c a
//     lazily built 65536-entry table maps a byte *pair* (b0, b1) to the
//     packed pair of products (c*b0, c*b1), so a 64-bit word takes four
//     table lookups, one 64-bit load and one 64-bit store (GF-Complete's
//     SPLIT(8,8)). Tables are 128 KiB per coefficient, built on first use
//     and published with an atomic pointer. The layout only pays while
//     the live tables fit in cache: it beats the byte loop up to roughly
//     32 distinct coefficients and collapses to ~0.25x beyond 64, so the
//     rse codec counts the distinct coefficients of each generator or
//     decode matrix and uses the *Compact forms (gf256.go), whose
//     portable path is the byte loop over the shared 64 KiB product
//     table, past its budget. The c == 1 case XORs four words per
//     iteration.
//
// The portable kernels re-slice up front (d := dst[:len(src)]) so the
// compiler drops bounds checks and go through encoding/binary — no unsafe.
// Both paths are bit-identical to the scalar reference on every input
// (TestKernelsMatchScalar, FuzzKernels).

import (
	"encoding/binary"
	"sync/atomic"
)

var (
	// mulLo[c][x] = c*x for x in [0,16): products of the low nibble.
	mulLo [256][16]byte
	// mulHi[c][x] = c*(x<<4): products of the high nibble.
	mulHi [256][16]byte
	// pairTbls[c] points to the coefficient's pair-product table:
	// entry b0|b1<<8 holds c*b0 | (c*b1)<<8. Built lazily by
	// pairTableFor, published atomically; never mutated after publish.
	pairTbls [256]atomic.Pointer[[65536]uint16]
)

// buildNibbleTables fills the split-nibble product tables; called from the
// package init in gf256.go once the log/exp tables exist.
func buildNibbleTables() {
	for c := 0; c < 256; c++ {
		for x := 0; x < 16; x++ {
			mulLo[c][x] = mulSlow(byte(c), byte(x))
			mulHi[c][x] = mulSlow(byte(c), byte(x<<4))
		}
	}
}

// pairTableFor returns the pair-product table for c, building it on first
// use. Concurrent first calls may both build; the CompareAndSwap keeps one
// winner and the duplicate is garbage-collected, so no lock is needed.
func pairTableFor(c byte) *[65536]uint16 {
	if t := pairTbls[c].Load(); t != nil {
		return t
	}
	//rmlint:ignore hotpath-alloc pair table is built once per coefficient and cached in pairTbls
	t := new([65536]uint16)
	row := &mulTbl[c]
	for b0 := 0; b0 < 256; b0++ {
		p := uint16(row[b0])
		for b1 := 0; b1 < 256; b1++ {
			t[b0|b1<<8] = p | uint16(row[b1])<<8
		}
	}
	pairTbls[c].CompareAndSwap(nil, t)
	return pairTbls[c].Load()
}

// vecLen returns how many leading bytes of an n-byte slice the AVX2
// kernels take: n rounded down to a multiple of 32, or 0 without AVX2.
func vecLen(n int) int {
	if useAVX2 {
		return n &^ 31
	}
	return 0
}

// mulPrefix sets dst[i] = c*src[i] over the vecLen prefix and returns its
// length.
func mulPrefix(c byte, src, dst []byte) int {
	v := vecLen(len(src))
	if v > 0 {
		mulAVX2(&mulLo[c], &mulHi[c], src[:v], dst[:v])
	}
	return v
}

// mulAddPrefix computes dst[i] ^= c*src[i] over the vecLen prefix and
// returns its length.
func mulAddPrefix(c byte, src, dst []byte) int {
	v := vecLen(len(src))
	if v > 0 {
		mulAddAVX2(&mulLo[c], &mulHi[c], src[:v], dst[:v])
	}
	return v
}

// xorSlice computes dst[i] ^= src[i]: AVX2 over the vecLen prefix, the
// word loop over the rest.
func xorSlice(src, dst []byte) {
	v := vecLen(len(src))
	if v > 0 {
		xorAVX2(src[:v], dst[:v])
	}
	xorWords(src[v:], dst[v:])
}

// xorWords computes dst[i] ^= src[i] one 64-bit word at a time, 4x
// unrolled. len(dst) must be >= len(src); extra dst bytes are untouched.
func xorWords(src, dst []byte) {
	d := dst[:len(src)]
	s := src
	for len(s) >= 32 {
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^binary.LittleEndian.Uint64(s))
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(d[8:])^binary.LittleEndian.Uint64(s[8:]))
		binary.LittleEndian.PutUint64(d[16:], binary.LittleEndian.Uint64(d[16:])^binary.LittleEndian.Uint64(s[16:]))
		binary.LittleEndian.PutUint64(d[24:], binary.LittleEndian.Uint64(d[24:])^binary.LittleEndian.Uint64(s[24:]))
		s = s[32:]
		d = d[32:]
	}
	for len(s) >= 8 {
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^binary.LittleEndian.Uint64(s))
		s = s[8:]
		d = d[8:]
	}
	for i, v := range s {
		d[i] ^= v
	}
}

// mulAddWords computes dst[i] ^= c*src[i] with the pair-table word kernel,
// two words per iteration; c must not be 0 or 1 (dispatched in
// MulAddSlice). The &0xffff masks prove the table indices in range, so the
// lookups compile without bounds checks.
func mulAddWords(c byte, src, dst []byte) {
	t := pairTableFor(c)
	d := dst[:len(src)]
	s := src
	for len(s) >= 16 {
		x := binary.LittleEndian.Uint64(s)
		y := binary.LittleEndian.Uint64(s[8:])
		w := uint64(t[x&0xffff]) | uint64(t[(x>>16)&0xffff])<<16 |
			uint64(t[(x>>32)&0xffff])<<32 | uint64(t[x>>48])<<48
		v := uint64(t[y&0xffff]) | uint64(t[(y>>16)&0xffff])<<16 |
			uint64(t[(y>>32)&0xffff])<<32 | uint64(t[y>>48])<<48
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^w)
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(d[8:])^v)
		s = s[16:]
		d = d[16:]
	}
	if len(s) >= 8 {
		x := binary.LittleEndian.Uint64(s)
		w := uint64(t[x&0xffff]) | uint64(t[(x>>16)&0xffff])<<16 |
			uint64(t[(x>>32)&0xffff])<<32 | uint64(t[x>>48])<<48
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^w)
		s = s[8:]
		d = d[8:]
	}
	mulAddRow(c, s, d)
}

// mulWords computes dst[i] = c*src[i] with the pair-table word kernel;
// c must not be 0 or 1 (dispatched in MulSlice).
func mulWords(c byte, src, dst []byte) {
	t := pairTableFor(c)
	d := dst[:len(src)]
	s := src
	for len(s) >= 16 {
		x := binary.LittleEndian.Uint64(s)
		y := binary.LittleEndian.Uint64(s[8:])
		w := uint64(t[x&0xffff]) | uint64(t[(x>>16)&0xffff])<<16 |
			uint64(t[(x>>32)&0xffff])<<32 | uint64(t[x>>48])<<48
		v := uint64(t[y&0xffff]) | uint64(t[(y>>16)&0xffff])<<16 |
			uint64(t[(y>>32)&0xffff])<<32 | uint64(t[y>>48])<<48
		binary.LittleEndian.PutUint64(d, w)
		binary.LittleEndian.PutUint64(d[8:], v)
		s = s[16:]
		d = d[16:]
	}
	if len(s) >= 8 {
		x := binary.LittleEndian.Uint64(s)
		w := uint64(t[x&0xffff]) | uint64(t[(x>>16)&0xffff])<<16 |
			uint64(t[(x>>32)&0xffff])<<32 | uint64(t[x>>48])<<48
		binary.LittleEndian.PutUint64(d, w)
		s = s[8:]
		d = d[8:]
	}
	mulRow(c, s, d)
}

// mulRow sets dst[i] = c*src[i] one byte at a time through c's row of the
// shared product table: the portable path of the Compact forms and the
// tail of the pair-table kernels.
func mulRow(c byte, src, dst []byte) {
	row := &mulTbl[c]
	d := dst[:len(src)]
	for i, v := range src {
		d[i] = row[v]
	}
}

// mulAddRow computes dst[i] ^= c*src[i]; see mulRow.
func mulAddRow(c byte, src, dst []byte) {
	row := &mulTbl[c]
	d := dst[:len(src)]
	for i, v := range src {
		d[i] ^= row[v]
	}
}

// MulAddSliceScalar is the byte-at-a-time multiply-accumulate kernel that
// predates the vector and word-parallel paths: dst[i] ^= c*src[i] through
// the 64 KiB product table. It is retained as the reference implementation
// — the equivalence tests assert the other kernels match it byte for byte,
// and
// BenchmarkKernels reports the speedup of MulAddSlice against it.
func MulAddSliceScalar(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(lengthMismatch("MulAddSliceScalar", len(src), len(dst)))
	}
	switch c {
	case 0:
		return
	case 1:
		for i, s := range src {
			dst[i] ^= s
		}
	default:
		tbl := &mulTbl[c]
		for i, s := range src {
			dst[i] ^= tbl[s]
		}
	}
}

// MulSliceScalar is the byte-at-a-time counterpart of MulSlice, retained
// as the reference implementation for the vector and word kernels.
func MulSliceScalar(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(lengthMismatch("MulSliceScalar", len(src), len(dst)))
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		tbl := &mulTbl[c]
		for i, s := range src {
			dst[i] = tbl[s]
		}
	}
}
