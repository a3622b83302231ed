// Package gf256 implements arithmetic over the Galois field GF(2^8).
//
// The field is realised as polynomials over GF(2) modulo the primitive
// polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same generator used by
// McAuley's burst-erasure coder and Rizzo's software FEC coder that the
// paper builds on. Elements are bytes; addition is XOR; multiplication is
// carried out through logarithm/antilogarithm tables built at package
// initialisation.
//
// The package provides scalar operations, vectorised multiply-accumulate
// kernels used by the Reed-Solomon erasure codec in package rse (AVX2
// assembly on amd64 hosts that support it, portable Go elsewhere), and dense
// matrix operations (Vandermonde construction, Gaussian-elimination
// inversion) over the field.
package gf256

import "fmt"

// Poly is the primitive polynomial generating the field, expressed with the
// x^8 term included: x^8+x^4+x^3+x^2+1.
const Poly = 0x11d

// Generator is the primitive element alpha = x whose powers enumerate all
// 255 non-zero field elements.
const Generator = 0x02

// Order is the number of elements of the field.
const Order = 256

var (
	// expTbl[i] = alpha^i for i in [0,510); doubled so Mul can skip a
	// modular reduction of the exponent sum.
	expTbl [510]byte
	// logTbl[x] = log_alpha(x) for x != 0. logTbl[0] is a sentinel that is
	// never read by correct code.
	logTbl [256]int32
	// mulTbl[x][y] = x*y. 64 KiB; the fast path for the codec kernels.
	mulTbl [256][256]byte
	// invTbl[x] = x^-1 for x != 0.
	invTbl [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTbl[i] = byte(x)
		logTbl[x] = int32(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	if x != 1 {
		panic("gf256: 0x11d is not primitive (table construction bug)")
	}
	for i := 255; i < 510; i++ {
		expTbl[i] = expTbl[i-255]
	}
	logTbl[0] = -1 // sentinel
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			mulTbl[a][b] = mulSlow(byte(a), byte(b))
		}
	}
	for a := 1; a < 256; a++ {
		invTbl[a] = expTbl[255-logTbl[a]]
	}
	buildNibbleTables()
}

// mulSlow multiplies via log/exp tables; used only to seed mulTbl.
func mulSlow(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTbl[logTbl[a]+logTbl[b]]
}

// Add returns a+b in GF(2^8). Addition and subtraction coincide (XOR).
func Add(a, b byte) byte { return a ^ b }

// Sub returns a-b in GF(2^8); identical to Add.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns the field product a*b.
func Mul(a, b byte) byte { return mulTbl[a][b] }

// Div returns a/b. It panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTbl[logTbl[a]-logTbl[b]+255]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return invTbl[a]
}

// Exp returns alpha^e for e >= 0.
func Exp(e int) byte {
	if e < 0 {
		panic("gf256: negative exponent in Exp")
	}
	return expTbl[e%255]
}

// Log returns log_alpha(a) in [0,255). It panics if a is zero.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return int(logTbl[a])
}

// Pow returns a^e. a^0 == 1 for every a, including 0 (empty product).
func Pow(a byte, e int) byte {
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	le := (int(logTbl[a]) * e) % 255
	if le < 0 {
		le += 255
	}
	return expTbl[le]
}

func lengthMismatch(op string, a, b int) string {
	return fmt.Sprintf("gf256: %s length mismatch %d != %d", op, a, b)
}

// MulSlice sets dst[i] = c*src[i] with the kernels of kernels.go: AVX2
// over the 32-byte-multiple prefix where available, the pair-table word
// kernel over the rest. dst and src must have equal length and must not
// alias unless identical. A zero coefficient zeroes dst; coefficient one
// copies.
//
//rmlint:hotpath
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(lengthMismatch("MulSlice", len(src), len(dst)))
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		if v := mulPrefix(c, src, dst); v < len(src) {
			mulWords(c, src[v:], dst[v:])
		}
	}
}

// MulAddSlice computes dst[i] ^= c*src[i], the multiply-accumulate kernel at
// the heart of Reed-Solomon encoding and decoding, with the kernels of
// kernels.go (see MulSlice). dst and src must have equal length and must
// not alias unless identical.
//
//rmlint:hotpath
func MulAddSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(lengthMismatch("MulAddSlice", len(src), len(dst)))
	}
	switch c {
	case 0:
		return
	case 1:
		xorSlice(src, dst)
	default:
		if v := mulAddPrefix(c, src, dst); v < len(src) {
			mulAddWords(c, src[v:], dst[v:])
		}
	}
}

// MulSliceCompact is MulSlice with no per-coefficient pair table built or
// touched: the part the AVX2 kernel does not take runs the byte-at-a-time
// loop over the shared 64 KiB product table. Callers whose coefficient
// working set is large — the rse codec gates on the distinct-coefficient
// count of its generator matrix — use the compact forms, because cycling
// through many 128 KiB pair tables evicts them faster than they pay off
// (the word kernel drops to ~0.25x the scalar loop beyond ~64 live
// coefficients; see DESIGN.md). With AVX2 the choice only matters for
// tails under 32 bytes.
//
//rmlint:hotpath
func MulSliceCompact(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(lengthMismatch("MulSliceCompact", len(src), len(dst)))
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		v := mulPrefix(c, src, dst)
		mulRow(c, src[v:], dst[v:])
	}
}

// MulAddSliceCompact is MulAddSlice with no pair table; see
// MulSliceCompact. The c == 1 case runs the same XOR as MulAddSlice — it
// needs no per-coefficient table.
//
//rmlint:hotpath
func MulAddSliceCompact(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(lengthMismatch("MulAddSliceCompact", len(src), len(dst)))
	}
	switch c {
	case 0:
		return
	case 1:
		xorSlice(src, dst)
	default:
		v := mulAddPrefix(c, src, dst)
		mulAddRow(c, src[v:], dst[v:])
	}
}

// AddSlice computes dst[i] ^= src[i]: 32 bytes at a time with AVX2, else
// 64 bits at a time.
//
//rmlint:hotpath
func AddSlice(src, dst []byte) {
	if len(src) != len(dst) {
		panic(lengthMismatch("AddSlice", len(src), len(dst)))
	}
	xorSlice(src, dst)
}

// DotProduct returns sum_i a[i]*b[i] over the field.
func DotProduct(a, b []byte) byte {
	if len(a) != len(b) {
		panic(fmt.Sprintf("gf256: DotProduct length mismatch %d != %d", len(a), len(b)))
	}
	var acc byte
	for i := range a {
		acc ^= mulTbl[a[i]][b[i]]
	}
	return acc
}
