package gf256

import (
	"os"
	"strings"
	"testing"
)

// TestAVX2Decision pins the bits avx2Usable reads: each required CPUID or
// XCR0 bit missing on its own must turn the AVX2 path off.
func TestAVX2Decision(t *testing.T) {
	const (
		leaf   = 7
		ecx1   = 1<<27 | 1<<28 // OSXSAVE, AVX
		ebx7   = 1 << 5        // AVX2
		xcr0   = 1<<1 | 1<<2   // SSE, AVX state
		others = 0xffffffff
	)
	if !avx2Usable(leaf, ecx1, ebx7, xcr0) {
		t.Fatal("AVX2 with OS-enabled YMM state not detected")
	}
	if !avx2Usable(0x20, others, others, others) {
		t.Fatal("AVX2 not detected with every other bit set")
	}
	for _, tc := range []struct {
		name                   string
		leaf, ecx1, ebx7, xcr0 uint32
	}{
		{"max leaf below 7", 6, ecx1, ebx7, xcr0},
		{"no OSXSAVE", leaf, 1 << 28, ebx7, xcr0},
		{"no AVX", leaf, 1 << 27, ebx7, xcr0},
		{"no AVX2", leaf, ecx1, others &^ (1 << 5), xcr0},
		{"YMM state off", leaf, ecx1, ebx7, others &^ (1 << 2)},
		{"XMM state off", leaf, ecx1, ebx7, others &^ (1 << 1)},
	} {
		if avx2Usable(tc.leaf, tc.ecx1, tc.ebx7, tc.xcr0) {
			t.Errorf("%s: AVX2 path selected", tc.name)
		}
	}
}

// TestAVX2SelectedWhenReported checks the live selection against an
// independent source, the kernel's CPU flags: a host whose /proc/cpuinfo
// lists avx2 must run the AVX2 kernels, so a detection bug cannot quietly
// lose the vector path.
func TestAVX2SelectedWhenReported(t *testing.T) {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	reported := false
	for _, line := range strings.Split(string(b), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(flags) {
				reported = reported || f == "avx2"
			}
			break
		}
	}
	if useAVX2 != reported {
		t.Fatalf("useAVX2 = %v, but /proc/cpuinfo reports avx2 = %v", useAVX2, reported)
	}
	t.Logf("AVX2 kernels selected: %v", useAVX2)
}
