#pragma once

#include <cstddef>
#include <cstdint>
#include <cmath>

// Portable SIMD layer for the kernels' double-precision inner loops, in two
// parts.
//
// 1. `simd::VecD`, a fixed-width vector whose lane count is picked at
//    compile time from the build's target ISA (the SPH density gather and
//    the Barnes-Hut near-leaf loop use it):
//
//      AVX2/AVX x86-64 ....... 4 lanes (__m256d)
//      SSE2 x86-64 (baseline) . 2 lanes (__m128d)
//      NEON aarch64 ........... 2 lanes (float64x2_t)
//      anything else .......... 1 lane  (plain double)
//
//    A default build (no -march) is SSE2, so `kWidth` is 2 even on an
//    AVX-512 host. Loops over VecD reassociate sums across lanes, which is
//    why those kernels keep their scalar loops as a bit-exactness reference
//    (a runtime set_simd(false) switch).
//
// 2. Lane traits (`ScalarLanes`, `Sse2Lanes`, `Avx2Lanes`, `Avx512Lanes`,
//    `NeonLanes`): one static interface per register width, for kernels
//    written once as a template over the traits and instantiated per ISA
//    inside a JUNGLE_SIMD_ENTRY function, then picked at run time from the
//    host CPU (the Hermite force loop does this). Every traits function
//    carries its own target attribute, so all of them compile into the
//    default build; only the entry point chosen at run time executes.
//
// Only IEEE-754 correctly-rounded operations are exposed (+ - * / sqrt and
// bitwise selects or masked adds) — no rsqrt/rcp approximations — so one
// sequence of operations gives bit-identical results at every width. FMA
// contraction would break that: GCC fuses a*b + c into one rounding
// whenever the target has FMA (AVX-512F does) unless fp-contract is off,
// so JUNGLE_SIMD_ENTRY turns it off for everything inlined into the entry.

#if defined(__x86_64__) || defined(_M_X64) || defined(__SSE2__)
#include <immintrin.h>
#define JUNGLE_SIMD_X86 1
#if defined(__AVX2__) || defined(__AVX__)
#define JUNGLE_SIMD_AVX 1
#else
#define JUNGLE_SIMD_SSE2 1
#endif
#elif defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define JUNGLE_SIMD_NEON 1
#endif

// Entry point of a traits-templated kernel: `flatten` inlines the whole
// template (and every traits call) into this one function, which carries
// the ISA's target and contraction off. Clang has no optimize attribute;
// it honours `#pragma clang fp contract(off)` in the kernel body instead.
#if defined(__clang__)
#define JUNGLE_SIMD_ENTRY(...) \
  __attribute__((flatten __VA_OPT__(, target(__VA_ARGS__))))
#else
#define JUNGLE_SIMD_ENTRY(...)                        \
  __attribute__((flatten, optimize("fp-contract=off") \
                 __VA_OPT__(, target(__VA_ARGS__))))
#endif

namespace jungle::kernels::simd {

#if defined(JUNGLE_SIMD_AVX)

inline constexpr std::size_t kWidth = 4;
inline constexpr const char* kIsa = "avx";

struct VecD {
  __m256d raw;
};

inline VecD load(const double* p) noexcept { return {_mm256_loadu_pd(p)}; }
inline void store(double* p, VecD v) noexcept { _mm256_storeu_pd(p, v.raw); }
inline VecD set1(double v) noexcept { return {_mm256_set1_pd(v)}; }
inline VecD zero() noexcept { return {_mm256_setzero_pd()}; }
inline VecD operator+(VecD a, VecD b) noexcept {
  return {_mm256_add_pd(a.raw, b.raw)};
}
inline VecD operator-(VecD a, VecD b) noexcept {
  return {_mm256_sub_pd(a.raw, b.raw)};
}
inline VecD operator*(VecD a, VecD b) noexcept {
  return {_mm256_mul_pd(a.raw, b.raw)};
}
inline VecD operator/(VecD a, VecD b) noexcept {
  return {_mm256_div_pd(a.raw, b.raw)};
}
inline VecD sqrt(VecD a) noexcept { return {_mm256_sqrt_pd(a.raw)}; }
/// Lane mask (all-ones / all-zeros bits) for a < b.
inline VecD less(VecD a, VecD b) noexcept {
  return {_mm256_cmp_pd(a.raw, b.raw, _CMP_LT_OQ)};
}
/// mask ? a : b, per lane.
inline VecD select(VecD mask, VecD a, VecD b) noexcept {
  return {_mm256_blendv_pd(b.raw, a.raw, mask.raw)};
}
inline double hsum(VecD v) noexcept {
  __m128d lo = _mm256_castpd256_pd128(v.raw);
  __m128d hi = _mm256_extractf128_pd(v.raw, 1);
  // Fixed reduction tree (0+1) + (2+3): deterministic regardless of data.
  __m128d pair = _mm_add_pd(lo, hi);
  __m128d swap = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, swap));
}

#elif defined(JUNGLE_SIMD_SSE2)

inline constexpr std::size_t kWidth = 2;
inline constexpr const char* kIsa = "sse2";

struct VecD {
  __m128d raw;
};

inline VecD load(const double* p) noexcept { return {_mm_loadu_pd(p)}; }
inline void store(double* p, VecD v) noexcept { _mm_storeu_pd(p, v.raw); }
inline VecD set1(double v) noexcept { return {_mm_set1_pd(v)}; }
inline VecD zero() noexcept { return {_mm_setzero_pd()}; }
inline VecD operator+(VecD a, VecD b) noexcept {
  return {_mm_add_pd(a.raw, b.raw)};
}
inline VecD operator-(VecD a, VecD b) noexcept {
  return {_mm_sub_pd(a.raw, b.raw)};
}
inline VecD operator*(VecD a, VecD b) noexcept {
  return {_mm_mul_pd(a.raw, b.raw)};
}
inline VecD operator/(VecD a, VecD b) noexcept {
  return {_mm_div_pd(a.raw, b.raw)};
}
inline VecD sqrt(VecD a) noexcept { return {_mm_sqrt_pd(a.raw)}; }
inline VecD less(VecD a, VecD b) noexcept {
  return {_mm_cmplt_pd(a.raw, b.raw)};
}
inline VecD select(VecD mask, VecD a, VecD b) noexcept {
  return {_mm_or_pd(_mm_and_pd(mask.raw, a.raw),
                    _mm_andnot_pd(mask.raw, b.raw))};
}
inline double hsum(VecD v) noexcept {
  __m128d swap = _mm_unpackhi_pd(v.raw, v.raw);
  return _mm_cvtsd_f64(_mm_add_sd(v.raw, swap));
}

#elif defined(JUNGLE_SIMD_NEON)

inline constexpr std::size_t kWidth = 2;
inline constexpr const char* kIsa = "neon";

struct VecD {
  float64x2_t raw;
};

inline VecD load(const double* p) noexcept { return {vld1q_f64(p)}; }
inline void store(double* p, VecD v) noexcept { vst1q_f64(p, v.raw); }
inline VecD set1(double v) noexcept { return {vdupq_n_f64(v)}; }
inline VecD zero() noexcept { return {vdupq_n_f64(0.0)}; }
inline VecD operator+(VecD a, VecD b) noexcept {
  return {vaddq_f64(a.raw, b.raw)};
}
inline VecD operator-(VecD a, VecD b) noexcept {
  return {vsubq_f64(a.raw, b.raw)};
}
inline VecD operator*(VecD a, VecD b) noexcept {
  return {vmulq_f64(a.raw, b.raw)};
}
inline VecD operator/(VecD a, VecD b) noexcept {
  return {vdivq_f64(a.raw, b.raw)};
}
inline VecD sqrt(VecD a) noexcept { return {vsqrtq_f64(a.raw)}; }
inline VecD less(VecD a, VecD b) noexcept {
  return {vreinterpretq_f64_u64(vcltq_f64(a.raw, b.raw))};
}
inline VecD select(VecD mask, VecD a, VecD b) noexcept {
  return {vbslq_f64(vreinterpretq_u64_f64(mask.raw), a.raw, b.raw)};
}
inline double hsum(VecD v) noexcept {
  return vgetq_lane_f64(v.raw, 0) + vgetq_lane_f64(v.raw, 1);
}

#else

inline constexpr std::size_t kWidth = 1;
inline constexpr const char* kIsa = "scalar";

struct VecD {
  double raw;
};

inline VecD load(const double* p) noexcept { return {*p}; }
inline void store(double* p, VecD v) noexcept { *p = v.raw; }
inline VecD set1(double v) noexcept { return {v}; }
inline VecD zero() noexcept { return {0.0}; }
inline VecD operator+(VecD a, VecD b) noexcept { return {a.raw + b.raw}; }
inline VecD operator-(VecD a, VecD b) noexcept { return {a.raw - b.raw}; }
inline VecD operator*(VecD a, VecD b) noexcept { return {a.raw * b.raw}; }
inline VecD operator/(VecD a, VecD b) noexcept { return {a.raw / b.raw}; }
inline VecD sqrt(VecD a) noexcept { return {std::sqrt(a.raw)}; }
inline VecD less(VecD a, VecD b) noexcept {
  std::uint64_t bits = a.raw < b.raw ? ~std::uint64_t{0} : 0;
  double mask;
  __builtin_memcpy(&mask, &bits, sizeof(mask));
  return {mask};
}
inline VecD select(VecD mask, VecD a, VecD b) noexcept {
  std::uint64_t mbits, abits, bbits;
  __builtin_memcpy(&mbits, &mask.raw, sizeof(mbits));
  __builtin_memcpy(&abits, &a.raw, sizeof(abits));
  __builtin_memcpy(&bbits, &b.raw, sizeof(bbits));
  std::uint64_t rbits = (mbits & abits) | (~mbits & bbits);
  double r;
  __builtin_memcpy(&r, &rbits, sizeof(r));
  return {r};
}
inline double hsum(VecD v) noexcept { return v.raw; }

#endif

// ------------------------------------------------------------ lane traits
//
// V is the register type and Mask the per-lane predicate; `all_but(k)`
// keeps every lane except lane k, and `add_where(keep, a, t)` returns
// a + t in kept lanes and a, bit for bit, elsewhere. GCC and Clang give the
// x86/NEON vector types the arithmetic operators, so a kernel body spells
// + - * / the same way for V and for double.

struct ScalarLanes {
  static constexpr std::size_t kWidth = 1;
  static constexpr const char* kIsa = "scalar";
  using V = double;
  using Mask = bool;
  static V set1(double v) noexcept { return v; }
  static V load(const double* p) noexcept { return *p; }
  static void store(double* p, V v) noexcept { *p = v; }
  static V sqrt(V a) noexcept { return std::sqrt(a); }
  static Mask all_but(std::size_t /*lane 0*/) noexcept { return false; }
  static V add_where(Mask keep, V a, V t) noexcept { return keep ? a + t : a; }
};

#if defined(JUNGLE_SIMD_X86)

#define JUNGLE_LANES_FN(isa) [[gnu::target(isa)]] static

struct Sse2Lanes {
  static constexpr std::size_t kWidth = 2;
  static constexpr const char* kIsa = "sse2";
  using V = __m128d;
  using Mask = __m128d;
  JUNGLE_LANES_FN("sse2") V set1(double v) noexcept { return _mm_set1_pd(v); }
  JUNGLE_LANES_FN("sse2") V load(const double* p) noexcept {
    return _mm_loadu_pd(p);
  }
  JUNGLE_LANES_FN("sse2") void store(double* p, V v) noexcept {
    _mm_storeu_pd(p, v);
  }
  JUNGLE_LANES_FN("sse2") V sqrt(V a) noexcept { return _mm_sqrt_pd(a); }
  JUNGLE_LANES_FN("sse2") Mask all_but(std::size_t lane) noexcept {
    return _mm_cmpneq_pd(_mm_set_pd(1.0, 0.0),
                         _mm_set1_pd(static_cast<double>(lane)));
  }
  JUNGLE_LANES_FN("sse2") V add_where(Mask keep, V a, V t) noexcept {
    return _mm_or_pd(_mm_and_pd(keep, _mm_add_pd(a, t)),
                     _mm_andnot_pd(keep, a));
  }
};

struct Avx2Lanes {
  static constexpr std::size_t kWidth = 4;
  static constexpr const char* kIsa = "avx2";
  using V = __m256d;
  using Mask = __m256d;
  JUNGLE_LANES_FN("avx2") V set1(double v) noexcept {
    return _mm256_set1_pd(v);
  }
  JUNGLE_LANES_FN("avx2") V load(const double* p) noexcept {
    return _mm256_loadu_pd(p);
  }
  JUNGLE_LANES_FN("avx2") void store(double* p, V v) noexcept {
    _mm256_storeu_pd(p, v);
  }
  JUNGLE_LANES_FN("avx2") V sqrt(V a) noexcept { return _mm256_sqrt_pd(a); }
  JUNGLE_LANES_FN("avx2") Mask all_but(std::size_t lane) noexcept {
    return _mm256_cmp_pd(_mm256_set_pd(3.0, 2.0, 1.0, 0.0),
                         _mm256_set1_pd(static_cast<double>(lane)),
                         _CMP_NEQ_OQ);
  }
  JUNGLE_LANES_FN("avx2") V add_where(Mask keep, V a, V t) noexcept {
    return _mm256_blendv_pd(a, _mm256_add_pd(a, t), keep);
  }
};

struct Avx512Lanes {
  static constexpr std::size_t kWidth = 8;
  static constexpr const char* kIsa = "avx512";
  using V = __m512d;
  using Mask = __mmask8;
  JUNGLE_LANES_FN("avx512f") V set1(double v) noexcept {
    return _mm512_set1_pd(v);
  }
  JUNGLE_LANES_FN("avx512f") V load(const double* p) noexcept {
    return _mm512_loadu_pd(p);
  }
  JUNGLE_LANES_FN("avx512f") void store(double* p, V v) noexcept {
    _mm512_storeu_pd(p, v);
  }
  // Zero-masked form: _mm512_sqrt_pd passes _mm512_undefined_pd() as the
  // pass-through operand, which GCC 12 flags as -Wmaybe-uninitialized.
  JUNGLE_LANES_FN("avx512f") V sqrt(V a) noexcept {
    return _mm512_maskz_sqrt_pd(static_cast<__mmask8>(0xFF), a);
  }
  JUNGLE_LANES_FN("avx512f") Mask all_but(std::size_t lane) noexcept {
    return static_cast<Mask>(0xFFu ^ (1u << lane));
  }
  JUNGLE_LANES_FN("avx512f") V add_where(Mask keep, V a, V t) noexcept {
    return _mm512_mask_add_pd(a, keep, a, t);
  }
};

#undef JUNGLE_LANES_FN

#elif defined(JUNGLE_SIMD_NEON)

struct NeonLanes {
  static constexpr std::size_t kWidth = 2;
  static constexpr const char* kIsa = "neon";
  using V = float64x2_t;
  using Mask = uint64x2_t;
  static V set1(double v) noexcept { return vdupq_n_f64(v); }
  static V load(const double* p) noexcept { return vld1q_f64(p); }
  static void store(double* p, V v) noexcept { vst1q_f64(p, v); }
  static V sqrt(V a) noexcept { return vsqrtq_f64(a); }
  static Mask all_but(std::size_t lane) noexcept {
    const double iota[2] = {0.0, 1.0};
    return vreinterpretq_u64_u32(vmvnq_u32(vreinterpretq_u32_u64(vceqq_f64(
        vld1q_f64(iota), vdupq_n_f64(static_cast<double>(lane))))));
  }
  static V add_where(Mask keep, V a, V t) noexcept {
    return vbslq_f64(keep, vaddq_f64(a, t), a);
  }
};

#endif

}  // namespace jungle::kernels::simd
