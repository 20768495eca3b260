#include "src/crypto/prg.h"

#include "src/crypto/chacha20.h"
#include "src/crypto/highwayhash.h"
#include "src/crypto/sha256.h"
#include "src/crypto/siphash.h"

namespace gpudpf {
namespace {

// Fixed, public domain-separation keys for the MMO / keyed-PRF expansions.
// (Public constants are safe here: DPF security rests on seed secrecy.)
constexpr u128 kLeftKey = MakeU128(0x5b1ab6e5cc6b1d43ull, 0x92ab6e13a4f0c9e1ull);
constexpr u128 kRightKey = MakeU128(0x1f83d9abfb41bd6bull, 0x9b05688c2b3e6c1full);

void SeedToChachaKey(u128 seed, std::uint32_t key[8]) {
    const std::uint64_t lo = Lo64(seed);
    const std::uint64_t hi = Hi64(seed);
    key[0] = static_cast<std::uint32_t>(lo);
    key[1] = static_cast<std::uint32_t>(lo >> 32);
    key[2] = static_cast<std::uint32_t>(hi);
    key[3] = static_cast<std::uint32_t>(hi >> 32);
    // Repeat the 128-bit seed to fill the 256-bit key (standard widening for
    // 128-bit-security use).
    key[4] = key[0];
    key[5] = key[1];
    key[6] = key[2];
    key[7] = key[3];
}

u128 WordsToU128(const std::uint32_t w[4]) {
    return MakeU128((static_cast<std::uint64_t>(w[3]) << 32) | w[2],
                    (static_cast<std::uint64_t>(w[1]) << 32) | w[0]);
}

}  // namespace

Prg::Prg(PrfKind kind) : kind_(kind) {
    if (kind_ == PrfKind::kAes128) {
        aes_left_ = std::make_unique<Aes128>(kLeftKey);
        aes_right_ = std::make_unique<Aes128>(kRightKey);
    }
}

void Prg::Expand(u128 seed, u128* left, u128* right) const {
    switch (kind_) {
        case PrfKind::kAes128:
            *left = aes_left_->Mmo(seed);
            *right = aes_right_->Mmo(seed);
            return;
        case PrfKind::kChacha20: {
            std::uint32_t key[8];
            SeedToChachaKey(seed, key);
            static const std::uint32_t kNonce[3] = {0x44504600u, 0, 0};  // "DPF"
            std::uint32_t out[16];
            Chacha20Block(key, 0, kNonce, out);
            *left = WordsToU128(out);
            *right = WordsToU128(out + 4);
            return;
        }
        case PrfKind::kSipHash:
            *left = SipHashPrf(seed, kLeftKey);
            *right = SipHashPrf(seed, kRightKey);
            return;
        case PrfKind::kHighwayHash:
            *left = HighwayHashPrf(seed, kLeftKey);
            *right = HighwayHashPrf(seed, kRightKey);
            return;
        case PrfKind::kSha256: {
            std::uint8_t k[16];
            StoreU128Le(seed, k);
            std::uint8_t m[17];
            StoreU128Le(kLeftKey, m);
            m[16] = 0x01;
            Sha256Digest d = HmacSha256(k, sizeof(k), m, sizeof(m));
            *left = LoadU128Le(d.data());
            StoreU128Le(kRightKey, m);
            m[16] = 0x02;
            d = HmacSha256(k, sizeof(k), m, sizeof(m));
            *right = LoadU128Le(d.data());
            return;
        }
    }
}

void Prg::ExpandBatch(const u128* seeds, std::size_t n, u128* lefts,
                      u128* rights) const {
    if (kind_ == PrfKind::kAes128) {
        MmoExpandBatch(*aes_left_, *aes_right_, seeds, n, lefts, rights);
        return;
    }
    if (kind_ == PrfKind::kChacha20) {
        using chacha20_simd::Isa;
        static const Isa widest =
            chacha20_simd::Supported(Isa::kAvx512) ? Isa::kAvx512
            : chacha20_simd::Supported(Isa::kAvx2) ? Isa::kAvx2
                                                   : Isa::kScalar;
        chacha20_simd::ExpandBatch(widest, seeds, n, lefts, rights);
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        Expand(seeds[i], &lefts[i], &rights[i]);
    }
}

void Prg::ExpandWide(u128 seed, u128* out, std::size_t n) const {
    if (kind_ == PrfKind::kChacha20) {
        // Each block yields 4 output words.
        std::uint32_t key[8];
        SeedToChachaKey(seed, key);
        static const std::uint32_t kNonce[3] = {0x57494445u, 0, 0};  // "WIDE"
        std::uint32_t block[16];
        for (std::size_t i = 0; i < n; i += 4) {
            Chacha20Block(key, static_cast<std::uint32_t>(i / 4), kNonce, block);
            for (std::size_t j = 0; j < 4 && i + j < n; ++j) {
                out[i + j] = WordsToU128(block + 4 * j);
            }
        }
        return;
    }
    if (kind_ == PrfKind::kAes128) {
        // CTR-mode under a per-seed schedule would be faster, but the fixed
        // key MMO keeps parity with the tree expansion path.
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = aes_left_->Mmo(seed + static_cast<u128>(2 * i + 1));
        }
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = PrfEval(kind_, seed, static_cast<u128>(i) + kLeftKey);
    }
}

int Prg::PrimitiveCallsPerExpand() const {
    return kind_ == PrfKind::kChacha20 ? 1 : 2;
}

}  // namespace gpudpf
