// Length-doubling PRG used for GGM-tree DPF expansion.
//
// Expand(seed) -> (left child seed, right child seed). For AES the standard
// fixed-key Matyas-Meyer-Oseas construction is used (two fixed-key AES
// instances; one schedule each, computed once), matching both the Google
// CPU baseline and the paper's GPU implementation. For ChaCha20 a single
// block call produces both children (512-bit output), which is exactly why
// it performs so well on GPUs (Table 5).
#pragma once

#include <cstddef>
#include <memory>

#include "src/crypto/aes128.h"
#include "src/crypto/prf.h"

namespace gpudpf {

class Prg {
  public:
    explicit Prg(PrfKind kind);

    PrfKind kind() const { return kind_; }

    // One node expansion: derives both child seeds from `seed`.
    // Control bits are extracted from the children's LSBs by the DPF layer.
    void Expand(u128 seed, u128* left, u128* right) const;

    // Batched node expansion of a whole tree-level frontier:
    // (lefts[i], rights[i]) = Expand(seeds[i]). Bit-identical to n scalar
    // Expand calls. When the host supports it and GPUDPF_FORCE_SCALAR is
    // off, the AES kind pipelines the fixed-key MMO through hardware AES-NI
    // (8 blocks in flight), and the ChaCha20 kind runs 16 (AVX-512F) or 8
    // (AVX2) seeds per instruction, one seed per vector lane, with the
    // tail seeds through the scalar Expand. Other kinds loop the scalar
    // path.
    void ExpandBatch(const u128* seeds, std::size_t n, u128* lefts,
                     u128* rights) const;

    // Expands a seed into `n` output words (leaf/output conversion for
    // wide-output DPFs).
    void ExpandWide(u128 seed, u128* out, std::size_t n) const;

    // Number of underlying primitive calls per Expand (1 for ChaCha20,
    // 2 for the per-child constructions); feeds compute metrics.
    int PrimitiveCallsPerExpand() const;

  private:
    PrfKind kind_;
    // Fixed-key AES instances for the MMO construction (AES kind only).
    std::unique_ptr<Aes128> aes_left_;
    std::unique_ptr<Aes128> aes_right_;
};

// --- ChaCha20 ExpandBatch paths (src/crypto/chacha20_simd.cc) ------------
// Test/bench seam: Prg::ExpandBatch on the ChaCha20 kind always takes the
// widest supported path by itself.
namespace chacha20_simd {

enum class Isa { kScalar, kAvx2, kAvx512 };

inline constexpr Isa kAllIsas[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512};

const char* IsaName(Isa isa);

// Whether the path is compiled in AND the effective CpuFeatures probe
// allows it: false for the vector paths under GPUDPF_FORCE_SCALAR.
// kScalar is always supported.
bool Supported(Isa isa);

// Prg(PrfKind::kChacha20).ExpandBatch through one path: the full lane
// groups (8 seeds for kAvx2, 16 for kAvx512) in vector lanes, the
// remaining tail seeds through the scalar Expand. Requires Supported(isa).
void ExpandBatch(Isa isa, const u128* seeds, std::size_t n, u128* lefts,
                 u128* rights);

}  // namespace chacha20_simd

}  // namespace gpudpf
