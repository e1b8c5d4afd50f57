//go:build amd64

// Package cpufeat probes the x86 vector extensions the SIMD kernels in
// sca and replay are gated on. Every kernel in this repository computes
// bit-identical results to its portable Go reference — the feature
// flags select speed, never semantics — so flipping these values only
// changes which implementation runs.
package cpufeat

// AVX reports AVX support by CPU and OS (and not disabled via
// ForcePortableEnv).
var AVX = !ForcedPortable && cpuHasAVX()

// FMA reports the FMA3 extension (VFMADD*, VFNMADD*) on top of AVX.
// math.Exp takes its fused-multiply-add path exactly when the CPU has
// AVX and FMA, so a kernel that reproduces that path is gated on it.
var FMA = AVX && cpuHasFMA()

// AVX512 reports AVX-512 Foundation support (F+DQ, the subset the
// float64 kernels use) by CPU and OS (and not disabled via
// ForcePortableEnv).
var AVX512 = !ForcedPortable && cpuHasAVX512()

// AVX512Popcnt reports the AVX512_VPOPCNTDQ extension used by the
// replay batch VM's Hamming-weight lanes.
var AVX512Popcnt = AVX512 && cpuHasVPOPCNTDQ()

// cpuHasAVX checks CPUID for AVX and OSXSAVE and XGETBV for OS-managed
// XMM+YMM state — the canonical gate for executing VEX-encoded code.
func cpuHasAVX() bool {
	_, _, c, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	lo, _ := xgetbv()
	return lo&0x6 == 0x6 // XMM and YMM state enabled
}

// cpuHasAVX512 checks CPUID leaf 7 for AVX512F+DQ and XGETBV for
// OS-managed opmask and ZMM state — the gate for EVEX-encoded code.
func cpuHasAVX512() bool {
	if !cpuHasAVX() {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const avx512f, avx512dq = 1 << 16, 1 << 17
	if b&avx512f == 0 || b&avx512dq == 0 {
		return false
	}
	lo, _ := xgetbv()
	return lo&0xE6 == 0xE6 // XMM, YMM, opmask, ZMM0-15, ZMM16-31 state
}

// cpuHasFMA checks CPUID leaf 1 ECX for FMA3.
func cpuHasFMA() bool {
	_, _, c, _ := cpuid(1, 0)
	const fma = 1 << 12
	return c&fma != 0
}

// cpuHasVPOPCNTDQ checks CPUID leaf 7 ECX for AVX512_VPOPCNTDQ.
func cpuHasVPOPCNTDQ() bool {
	_, _, c, _ := cpuid(7, 0)
	const vpopcntdq = 1 << 14
	return c&vpopcntdq != 0
}

// cpuid executes the CPUID instruction (implemented in assembly).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (implemented in assembly).
func xgetbv() (eax, edx uint32)
