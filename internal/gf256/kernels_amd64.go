package gf256

// useAVX2 selects the assembly kernels of kernels_amd64.s for the
// 32-byte-multiple prefix of every slice kernel. It is fixed at package
// init from CPUID and XGETBV.
var useAVX2 = avx2Usable(cpuidAVX2())

// cpuidAVX2 reads the CPUID and XCR0 words avx2Usable decides on. XGETBV
// is executed only when CPUID reports OSXSAVE, since it faults otherwise.
func cpuidAVX2() (maxLeaf, ecx1, ebx7, xcr0 uint32) {
	maxLeaf, _, _, _ = cpuid(0, 0)
	if maxLeaf < 7 {
		return maxLeaf, 0, 0, 0
	}
	_, _, ecx1, _ = cpuid(1, 0)
	_, ebx7, _, _ = cpuid(7, 0)
	if ecx1&(1<<27) != 0 {
		xcr0, _ = xgetbv()
	}
	return maxLeaf, ecx1, ebx7, xcr0
}

// avx2Usable reports whether the CPU has AVX2 and the OS saves YMM state:
// leaf 1 ECX must show OSXSAVE (bit 27) and AVX (bit 28), XCR0 must enable
// SSE and AVX state (bits 1 and 2), and leaf 7 EBX must show AVX2 (bit 5).
func avx2Usable(maxLeaf, ecx1, ebx7, xcr0 uint32) bool {
	const osxsaveAVX = 1<<27 | 1<<28
	return maxLeaf >= 7 &&
		ecx1&osxsaveAVX == osxsaveAVX &&
		xcr0&6 == 6 &&
		ebx7&(1<<5) != 0
}

// mulAVX2 sets dst[i] = c*src[i] from c's nibble tables (lo = &mulLo[c],
// hi = &mulHi[c]). len(src) must be a multiple of 32 and len(dst) at
// least len(src).
//
//go:noescape
func mulAVX2(lo, hi *[16]byte, src, dst []byte)

// mulAddAVX2 computes dst[i] ^= c*src[i]; see mulAVX2.
//
//go:noescape
func mulAddAVX2(lo, hi *[16]byte, src, dst []byte)

// xorAVX2 computes dst[i] ^= src[i]. len(src) must be a multiple of 32
// and len(dst) at least len(src).
//
//go:noescape
func xorAVX2(src, dst []byte)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
