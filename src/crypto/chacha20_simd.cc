// Vectorized ChaCha20 backend for Prg::ExpandBatch.
//
// Vertical vectorization (Goll & Gueron, "Vectorization on ChaCha Stream
// Cipher", ITNG 2014): each 32-bit vector lane carries one seed's whole
// ChaCha20 block, so state word i of 8 (AVX2) or 16 (AVX-512F) seeds sits
// in one register and every quarter-round step is one instruction for the
// whole lane group. The construction is Prg::Expand's, word for word:
//
//   key     = the seed's four LE words, repeated into 8
//   counter = 0, nonce = {0x44504600 ("DPF"), 0, 0}
//   left    = output words 0-3, right = output words 4-7
//
// so only words 0-7 need the feed-forward add. Lane order is free as long
// as the store undoes the load: the 4x4 word transpose used on the way in
// (within each 128-bit lane) is its own inverse on the way out.
//
// Kept in its own translation unit with per-function target attributes
// (the src/crypto/aes128_ni.cc idiom) so the rest of the build needs no
// -mavx2/-mavx512f flags; ExpandBatch only reaches a vector path after
// Supported() has checked the effective CpuFeatures probe.

#include <cstddef>
#include <cstdint>

#include "src/common/cpuid.h"
#include "src/common/u128.h"
#include "src/crypto/prg.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define GPUDPF_HAVE_CHACHA_SIMD_BUILD 1
#include <immintrin.h>
#endif

namespace gpudpf {
namespace chacha20_simd {
namespace {

#ifdef GPUDPF_HAVE_CHACHA_SIMD_BUILD

// "expand 32-byte k", then the nonce's first word; the counter and the
// other nonce words are zero.
constexpr std::uint32_t kSigma[4] = {0x61707865u, 0x3320646eu, 0x79622d32u,
                                     0x6b206574u};
constexpr std::uint32_t kNonce0 = 0x44504600u;

#define GPUDPF_AVX2_TARGET __attribute__((target("avx2")))
#define GPUDPF_AVX512_TARGET __attribute__((target("avx512f")))

// --- AVX2: 8 seeds per group ---------------------------------------------

// Transposes four 2-seed registers (seed s in 128-bit lane k of register r
// holds words 0-3) into four word registers: out[j] lane (k, p) = word j
// of the seed in lane k of register p. Applying it again inverts it.
GPUDPF_AVX2_TARGET inline void Transpose4(__m256i& a, __m256i& b, __m256i& c,
                                          __m256i& d) {
    const __m256i t0 = _mm256_unpacklo_epi32(a, b);
    const __m256i t1 = _mm256_unpackhi_epi32(a, b);
    const __m256i t2 = _mm256_unpacklo_epi32(c, d);
    const __m256i t3 = _mm256_unpackhi_epi32(c, d);
    a = _mm256_unpacklo_epi64(t0, t2);
    b = _mm256_unpackhi_epi64(t0, t2);
    c = _mm256_unpacklo_epi64(t1, t3);
    d = _mm256_unpackhi_epi64(t1, t3);
}

// Rotations by 16 and 8 move whole bytes, so one vpshufb each; 12 and 7
// take the shift pair.
GPUDPF_AVX2_TARGET inline __m256i Rotl16(__m256i v) {
    const __m256i k = _mm256_setr_epi8(
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
    return _mm256_shuffle_epi8(v, k);
}

GPUDPF_AVX2_TARGET inline __m256i Rotl8(__m256i v) {
    const __m256i k = _mm256_setr_epi8(
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
    return _mm256_shuffle_epi8(v, k);
}

template <int kBits>
GPUDPF_AVX2_TARGET inline __m256i Rotl(__m256i v) {
    return _mm256_or_si256(_mm256_slli_epi32(v, kBits),
                           _mm256_srli_epi32(v, 32 - kBits));
}

GPUDPF_AVX2_TARGET inline void QuarterRound(__m256i& a, __m256i& b,
                                            __m256i& c, __m256i& d) {
    a = _mm256_add_epi32(a, b); d = Rotl16(_mm256_xor_si256(d, a));
    c = _mm256_add_epi32(c, d); b = Rotl<12>(_mm256_xor_si256(b, c));
    a = _mm256_add_epi32(a, b); d = Rotl8(_mm256_xor_si256(d, a));
    c = _mm256_add_epi32(c, d); b = Rotl<7>(_mm256_xor_si256(b, c));
}

GPUDPF_AVX2_TARGET std::size_t ExpandAvx2(const u128* seeds, std::size_t n,
                                          u128* lefts, u128* rights) {
    const std::size_t groups = n / 8;
    for (std::size_t g = 0; g < groups; ++g) {
        const u128* in = seeds + 8 * g;
        __m256i k[4];
        for (int r = 0; r < 4; ++r) {
            k[r] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(in + 2 * r));
        }
        Transpose4(k[0], k[1], k[2], k[3]);
        __m256i x[16];
        for (int i = 0; i < 4; ++i) {
            x[i] = _mm256_set1_epi32(static_cast<int>(kSigma[i]));
            x[4 + i] = k[i];
            x[8 + i] = k[i];
            x[12 + i] = _mm256_setzero_si256();
        }
        x[13] = _mm256_set1_epi32(static_cast<int>(kNonce0));
        for (int round = 0; round < 10; ++round) {
            QuarterRound(x[0], x[4], x[8], x[12]);
            QuarterRound(x[1], x[5], x[9], x[13]);
            QuarterRound(x[2], x[6], x[10], x[14]);
            QuarterRound(x[3], x[7], x[11], x[15]);
            QuarterRound(x[0], x[5], x[10], x[15]);
            QuarterRound(x[1], x[6], x[11], x[12]);
            QuarterRound(x[2], x[7], x[8], x[13]);
            QuarterRound(x[3], x[4], x[9], x[14]);
        }
        __m256i l[4], r[4];
        for (int i = 0; i < 4; ++i) {
            l[i] = _mm256_add_epi32(
                x[i], _mm256_set1_epi32(static_cast<int>(kSigma[i])));
            r[i] = _mm256_add_epi32(x[4 + i], k[i]);
        }
        Transpose4(l[0], l[1], l[2], l[3]);
        Transpose4(r[0], r[1], r[2], r[3]);
        for (int q = 0; q < 4; ++q) {
            _mm256_storeu_si256(
                reinterpret_cast<__m256i*>(lefts + 8 * g + 2 * q), l[q]);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i*>(rights + 8 * g + 2 * q), r[q]);
        }
    }
    return 8 * groups;
}

// --- AVX-512F: 16 seeds per group ----------------------------------------

GPUDPF_AVX512_TARGET inline void Transpose4(__m512i& a, __m512i& b,
                                            __m512i& c, __m512i& d) {
    const __m512i t0 = _mm512_unpacklo_epi32(a, b);
    const __m512i t1 = _mm512_unpackhi_epi32(a, b);
    const __m512i t2 = _mm512_unpacklo_epi32(c, d);
    const __m512i t3 = _mm512_unpackhi_epi32(c, d);
    a = _mm512_unpacklo_epi64(t0, t2);
    b = _mm512_unpackhi_epi64(t0, t2);
    c = _mm512_unpacklo_epi64(t1, t3);
    d = _mm512_unpackhi_epi64(t1, t3);
}

GPUDPF_AVX512_TARGET inline void QuarterRound(__m512i& a, __m512i& b,
                                              __m512i& c, __m512i& d) {
    a = _mm512_add_epi32(a, b); d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 16);
    c = _mm512_add_epi32(c, d); b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 12);
    a = _mm512_add_epi32(a, b); d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 8);
    c = _mm512_add_epi32(c, d); b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 7);
}

GPUDPF_AVX512_TARGET std::size_t ExpandAvx512(const u128* seeds,
                                              std::size_t n, u128* lefts,
                                              u128* rights) {
    const std::size_t groups = n / 16;
    for (std::size_t g = 0; g < groups; ++g) {
        const u128* in = seeds + 16 * g;
        __m512i k[4];
        for (int r = 0; r < 4; ++r) k[r] = _mm512_loadu_si512(in + 4 * r);
        Transpose4(k[0], k[1], k[2], k[3]);
        __m512i x[16];
        for (int i = 0; i < 4; ++i) {
            x[i] = _mm512_set1_epi32(static_cast<int>(kSigma[i]));
            x[4 + i] = k[i];
            x[8 + i] = k[i];
            x[12 + i] = _mm512_setzero_si512();
        }
        x[13] = _mm512_set1_epi32(static_cast<int>(kNonce0));
        for (int round = 0; round < 10; ++round) {
            QuarterRound(x[0], x[4], x[8], x[12]);
            QuarterRound(x[1], x[5], x[9], x[13]);
            QuarterRound(x[2], x[6], x[10], x[14]);
            QuarterRound(x[3], x[7], x[11], x[15]);
            QuarterRound(x[0], x[5], x[10], x[15]);
            QuarterRound(x[1], x[6], x[11], x[12]);
            QuarterRound(x[2], x[7], x[8], x[13]);
            QuarterRound(x[3], x[4], x[9], x[14]);
        }
        __m512i l[4], r[4];
        for (int i = 0; i < 4; ++i) {
            l[i] = _mm512_add_epi32(
                x[i], _mm512_set1_epi32(static_cast<int>(kSigma[i])));
            r[i] = _mm512_add_epi32(x[4 + i], k[i]);
        }
        Transpose4(l[0], l[1], l[2], l[3]);
        Transpose4(r[0], r[1], r[2], r[3]);
        for (int q = 0; q < 4; ++q) {
            _mm512_storeu_si512(lefts + 16 * g + 4 * q, l[q]);
            _mm512_storeu_si512(rights + 16 * g + 4 * q, r[q]);
        }
    }
    return 16 * groups;
}

#endif  // GPUDPF_HAVE_CHACHA_SIMD_BUILD

}  // namespace

const char* IsaName(Isa isa) {
    switch (isa) {
        case Isa::kScalar:
            return "scalar";
        case Isa::kAvx2:
            return "avx2";
        case Isa::kAvx512:
            return "avx512";
    }
    return "unknown";
}

bool Supported(Isa isa) {
    switch (isa) {
        case Isa::kScalar:
            return true;
#ifdef GPUDPF_HAVE_CHACHA_SIMD_BUILD
        case Isa::kAvx2:
            return GetCpuFeatures().avx2;
        case Isa::kAvx512:
            return GetCpuFeatures().avx512f;
#else
        default:
            return false;
#endif
    }
    return false;
}

void ExpandBatch(Isa isa, const u128* seeds, std::size_t n, u128* lefts,
                 u128* rights) {
    std::size_t done = 0;
#ifdef GPUDPF_HAVE_CHACHA_SIMD_BUILD
    if (isa == Isa::kAvx512) done = ExpandAvx512(seeds, n, lefts, rights);
    if (isa == Isa::kAvx2) done = ExpandAvx2(seeds, n, lefts, rights);
#else
    (void)isa;
#endif
    // The tail (and the whole batch on the scalar path) goes through the
    // scalar construction, the bit-identity anchor.
    const Prg scalar(PrfKind::kChacha20);
    for (std::size_t i = done; i < n; ++i) {
        scalar.Expand(seeds[i], &lefts[i], &rights[i]);
    }
}

}  // namespace chacha20_simd
}  // namespace gpudpf
