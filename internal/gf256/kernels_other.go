//go:build !amd64

package gf256

// useAVX2 is false off amd64: the portable kernels of kernels.go do all
// the work, and the stubs below are never called.
const useAVX2 = false

func mulAVX2(lo, hi *[16]byte, src, dst []byte)    { panic("gf256: no AVX2 kernel on this platform") }
func mulAddAVX2(lo, hi *[16]byte, src, dst []byte) { panic("gf256: no AVX2 kernel on this platform") }
func xorAVX2(src, dst []byte)                      { panic("gf256: no AVX2 kernel on this platform") }
