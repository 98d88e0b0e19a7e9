package tensor

// GEMM backend dispatch. The three row-range kernels behind Gemm,
// GemmTransA and GemmTransB and the kernels behind RungGemm and
// MaxPool2x2 are selected once at startup through the function
// variables below: the portable
// scalar kernels (matmul.go) are the default everywhere, and on amd64
// builds without the purego tag an init in gemm_amd64.go swaps in
// AVX2+FMA assembly kernels when the CPU supports them (see
// detectAVX2FMA) and STEPPINGNET_NOSIMD is unset. Call sites —
// internal/nn, internal/infer, the Tensor wrappers — are oblivious to
// the choice, and the work-stealing row parallelism in parallel.go
// composes identically on top of either backend because dispatch
// happens per row range, below the fan-out.

// NoSIMDEnv, when set to any non-empty value in the environment at
// process start, forces the scalar GEMM backend even on CPUs whose
// SIMD features were detected. It is the runtime escape hatch the
// purego build tag provides at compile time.
const NoSIMDEnv = "STEPPINGNET_NOSIMD"

// The active kernels. The row-range ones compute rows [i0,i1) of the
// respective product and must be safe for concurrent invocation on
// disjoint row ranges (parallelRows fans them out).
var (
	gemmRowsImpl       func(c, a, b []float64, i0, i1, k, n int, accumulate bool)                 = gemmRows
	gemmTransARowsImpl func(c, a, b []float64, i0, i1, m, k, n int, accumulate bool)              = gemmTransARows
	gemmTransBRowsImpl func(c, a, b []float64, i0, i1, k, n int, accumulate bool)                 = gemmTransBRows
	rungGemmImpl       func(c, a, b []float64, off []int, bias []float64, m, k, n int, relu bool) = rungGemm
	maxPool2x2Impl     func(dst, src []float64, h, w int)                                         = maxPool2x2
)

// backendName names the backend the impl variables currently point
// at, for diagnostics and the benchmark baseline.
var backendName = "scalar"

// Backend reports the active GEMM backend: "avx2" when the assembly
// kernels are selected, "scalar" otherwise (non-amd64 builds, the
// purego build tag, missing CPU features, or the STEPPINGNET_NOSIMD
// override).
func Backend() string { return backendName }

// useScalarBackend (re)selects the portable scalar kernels. It is the
// fallback arm of the amd64 init and a test hook for cross-checking
// backends; it is not safe to call concurrently with running kernels.
func useScalarBackend() {
	backendName = "scalar"
	gemmRowsImpl = gemmRows
	gemmTransARowsImpl = gemmTransARows
	gemmTransBRowsImpl = gemmTransBRows
	rungGemmImpl = rungGemm
	maxPool2x2Impl = maxPool2x2
}
