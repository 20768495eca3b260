// DPF correctness and property tests (paper Section 3.1).
//
// Core invariant: Eval(k0, x) + Eval(k1, x) == (x == alpha ? beta : 0) in
// Z_2^128, for every x, every alpha, every supported PRF, every depth, and
// wide outputs.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/common/rng.h"
#include "src/dpf/dpf.h"

namespace gpudpf {
namespace {

TEST(DpfKeyTest, SerializedSizeMatchesFormula) {
    Rng rng(1);
    for (int n : {1, 4, 10, 20}) {
        const Dpf dpf(DpfParams{n, PrfKind::kChacha20, 1});
        auto [k0, k1] = dpf.GenIndicator(0, rng);
        // header 4 + seed 16 + n*(16+1) + 16 final.
        EXPECT_EQ(k0.SerializedSize(), 4u + 16u + n * 17u + 16u);
        EXPECT_EQ(k0.Serialize().size(), k0.SerializedSize());
    }
}

TEST(DpfKeyTest, SerializationRoundTrip) {
    Rng rng(2);
    const Dpf dpf(DpfParams{12, PrfKind::kAes128, 1});
    auto [k0, k1] = dpf.GenIndicator(1234, rng);
    const auto bytes = k0.Serialize();
    const DpfKey back = DpfKey::Deserialize(bytes.data(), bytes.size());
    EXPECT_EQ(back.party, k0.party);
    EXPECT_EQ(back.root_seed, k0.root_seed);
    EXPECT_EQ(back.params.log_domain, k0.params.log_domain);
    EXPECT_EQ(back.params.prf, k0.params.prf);
    ASSERT_EQ(back.cw.size(), k0.cw.size());
    for (std::size_t i = 0; i < back.cw.size(); ++i) {
        EXPECT_EQ(back.cw[i].seed, k0.cw[i].seed);
        EXPECT_EQ(back.cw[i].t_left, k0.cw[i].t_left);
        EXPECT_EQ(back.cw[i].t_right, k0.cw[i].t_right);
    }
    ASSERT_EQ(back.final_cw.size(), k0.final_cw.size());
    EXPECT_EQ(back.final_cw[0], k0.final_cw[0]);

    // The deserialized key evaluates identically.
    u128 a, b;
    dpf.EvalPoint(k0, 1234, &a);
    dpf.EvalPoint(back, 1234, &b);
    EXPECT_EQ(a, b);
}

TEST(DpfKeyTest, DeserializeRejectsGarbage) {
    std::vector<std::uint8_t> tiny(3, 0);
    EXPECT_THROW(DpfKey::Deserialize(tiny.data(), tiny.size()),
                 std::invalid_argument);
    std::vector<std::uint8_t> wrong(100, 0);
    wrong[1] = 12;  // log_domain = 12 requires a specific length
    EXPECT_THROW(DpfKey::Deserialize(wrong.data(), wrong.size()),
                 std::invalid_argument);
}

TEST(DpfTest, RejectsBadParams) {
    EXPECT_THROW(Dpf(DpfParams{0, PrfKind::kAes128, 1}),
                 std::invalid_argument);
    EXPECT_THROW(Dpf(DpfParams{41, PrfKind::kAes128, 1}),
                 std::invalid_argument);
    EXPECT_THROW(Dpf(DpfParams{8, PrfKind::kAes128, 0}),
                 std::invalid_argument);
}

TEST(DpfTest, GenRejectsAlphaOutsideDomain) {
    Rng rng(3);
    const Dpf dpf(DpfParams{4, PrfKind::kChacha20, 1});
    EXPECT_THROW(dpf.GenIndicator(16, rng), std::invalid_argument);
}

TEST(DpfTest, KeySizeIsLogarithmic) {
    Rng rng(4);
    const Dpf small(DpfParams{10, PrfKind::kChacha20, 1});
    const Dpf large(DpfParams{30, PrfKind::kChacha20, 1});
    auto [s0, s1] = small.GenIndicator(1, rng);
    auto [l0, l1] = large.GenIndicator(1, rng);
    // 2^30 domain key is only 3x the 2^10 key, not 2^20 x.
    EXPECT_LT(l0.SerializedSize(), 4 * s0.SerializedSize());
}

// Exhaustive correctness across small depths and all PRFs.
class DpfCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<int, PrfKind>> {};

TEST_P(DpfCorrectnessTest, SharesSumToIndicatorEverywhere) {
    const auto [n, prf] = GetParam();
    Rng rng(42 + n);
    const Dpf dpf(DpfParams{n, prf, 1});
    const std::uint64_t L = dpf.domain_size();
    // Test alphas at the boundaries and a random interior point.
    std::set<std::uint64_t> alphas{0, L - 1, L / 2};
    alphas.insert(rng.UniformInt(L));
    for (std::uint64_t alpha : alphas) {
        auto [k0, k1] = dpf.GenIndicator(alpha, rng);
        for (std::uint64_t x = 0; x < L; ++x) {
            u128 a, b;
            dpf.EvalPoint(k0, x, &a);
            dpf.EvalPoint(k1, x, &b);
            const u128 sum = a + b;
            if (x == alpha) {
                EXPECT_EQ(sum, static_cast<u128>(1))
                    << "alpha=" << alpha << " x=" << x;
            } else {
                EXPECT_EQ(sum, static_cast<u128>(0))
                    << "alpha=" << alpha << " x=" << x;
            }
        }
    }
}

TEST_P(DpfCorrectnessTest, FullDomainMatchesPointEval) {
    const auto [n, prf] = GetParam();
    Rng rng(7 + n);
    const Dpf dpf(DpfParams{n, prf, 1});
    const std::uint64_t L = dpf.domain_size();
    auto [k0, k1] = dpf.GenIndicator(rng.UniformInt(L), rng);
    std::vector<u128> full;
    dpf.EvalFullDomain(k0, &full);
    ASSERT_EQ(full.size(), L);
    for (std::uint64_t x = 0; x < L; ++x) {
        u128 point;
        dpf.EvalPoint(k0, x, &point);
        EXPECT_EQ(full[x], point) << "x=" << x;
    }
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndPrfs, DpfCorrectnessTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::ValuesIn(AllPrfKinds())),
    [](const auto& info) {
        std::string n = PrfKindName(std::get<1>(info.param));
        n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
        return "n" + std::to_string(std::get<0>(info.param)) + "_" + n;
    });

TEST(DpfTest, LargeDomainSpotChecks) {
    Rng rng(9);
    const Dpf dpf(DpfParams{26, PrfKind::kChacha20, 1});
    const std::uint64_t alpha = 48'517'133;
    auto [k0, k1] = dpf.GenIndicator(alpha, rng);
    u128 a, b;
    dpf.EvalPoint(k0, alpha, &a);
    dpf.EvalPoint(k1, alpha, &b);
    EXPECT_EQ(a + b, static_cast<u128>(1));
    for (std::uint64_t x : {std::uint64_t{0}, alpha - 1, alpha + 1,
                            dpf.domain_size() - 1, std::uint64_t{31337}}) {
        dpf.EvalPoint(k0, x, &a);
        dpf.EvalPoint(k1, x, &b);
        EXPECT_EQ(a + b, static_cast<u128>(0)) << "x=" << x;
    }
}

TEST(DpfTest, ArbitraryBetaValues) {
    Rng rng(10);
    const Dpf dpf(DpfParams{6, PrfKind::kAes128, 1});
    const u128 beta = MakeU128(0xdeadbeefcafef00dull, 0x0123456789abcdefull);
    auto [k0, k1] = dpf.Gen(17, {beta}, rng);
    for (std::uint64_t x = 0; x < 64; ++x) {
        u128 a, b;
        dpf.EvalPoint(k0, x, &a);
        dpf.EvalPoint(k1, x, &b);
        EXPECT_EQ(a + b, x == 17 ? beta : static_cast<u128>(0));
    }
}

TEST(DpfTest, WideOutputShares) {
    Rng rng(11);
    const Dpf dpf(DpfParams{5, PrfKind::kChacha20, 4});
    std::vector<u128> beta{1, MakeU128(2, 3), 0, MakeU128(0xff, 0xee)};
    auto [k0, k1] = dpf.Gen(9, beta, rng);
    std::vector<u128> a(4), b(4);
    for (std::uint64_t x = 0; x < 32; ++x) {
        dpf.EvalPoint(k0, x, a.data());
        dpf.EvalPoint(k1, x, b.data());
        for (int w = 0; w < 4; ++w) {
            EXPECT_EQ(a[w] + b[w], x == 9 ? beta[w] : static_cast<u128>(0))
                << "x=" << x << " w=" << w;
        }
    }
}

TEST(DpfTest, WideOutputFullDomain) {
    Rng rng(12);
    const Dpf dpf(DpfParams{4, PrfKind::kSipHash, 3});
    std::vector<u128> beta{7, 8, 9};
    auto [k0, k1] = dpf.Gen(3, beta, rng);
    std::vector<u128> f0, f1;
    dpf.EvalFullDomain(k0, &f0);
    dpf.EvalFullDomain(k1, &f1);
    ASSERT_EQ(f0.size(), 16u * 3);
    for (std::uint64_t x = 0; x < 16; ++x) {
        for (int w = 0; w < 3; ++w) {
            EXPECT_EQ(f0[x * 3 + w] + f1[x * 3 + w],
                      x == 3 ? beta[w] : static_cast<u128>(0));
        }
    }
}

// Security sanity: a single key's shares should look pseudorandom — in
// particular, the share at alpha should not be distinguishable as 0/1, and
// two keys for different alphas should be unrelated.
TEST(DpfSecuritySanityTest, SingleKeySharesAreNotDegenerate) {
    Rng rng(13);
    const Dpf dpf(DpfParams{8, PrfKind::kChacha20, 1});
    auto [k0, k1] = dpf.GenIndicator(100, rng);
    std::vector<u128> shares;
    dpf.EvalFullDomain(k0, &shares);
    int zeros = 0;
    int ones = 0;
    for (const u128 v : shares) {
        zeros += (v == 0);
        ones += (v == 1);
    }
    // Pseudorandom 128-bit values essentially never hit 0/1.
    EXPECT_EQ(zeros, 0);
    EXPECT_EQ(ones, 0);
}

TEST(DpfSecuritySanityTest, ShareBitsAreBalanced) {
    Rng rng(14);
    const Dpf dpf(DpfParams{10, PrfKind::kAes128, 1});
    auto [k0, k1] = dpf.GenIndicator(512, rng);
    std::vector<u128> shares;
    dpf.EvalFullDomain(k0, &shares);
    std::uint64_t set_bits = 0;
    for (const u128 v : shares) {
        for (int b = 0; b < 128; ++b) set_bits += (v >> b) & 1;
    }
    const double frac =
        static_cast<double>(set_bits) / (128.0 * shares.size());
    EXPECT_GT(frac, 0.49);
    EXPECT_LT(frac, 0.51);
}

TEST(DpfSecuritySanityTest, FreshKeysDiffer) {
    Rng rng(15);
    const Dpf dpf(DpfParams{8, PrfKind::kChacha20, 1});
    auto [a0, a1] = dpf.GenIndicator(5, rng);
    auto [b0, b1] = dpf.GenIndicator(5, rng);
    EXPECT_NE(a0.root_seed, b0.root_seed);
    // Same alpha, fresh randomness => different correction words.
    EXPECT_NE(a0.cw[0].seed, b0.cw[0].seed);
}

// Node-level primitives used by the parallel kernels.
TEST(DpfNodePrimitivesTest, ManualDescentMatchesEvalPoint) {
    Rng rng(16);
    const Dpf dpf(DpfParams{7, PrfKind::kHighwayHash, 1});
    auto [k0, k1] = dpf.GenIndicator(77, rng);
    for (std::uint64_t x : {std::uint64_t{0}, std::uint64_t{77},
                            std::uint64_t{127}}) {
        Dpf::Node node = dpf.Root(k0);
        for (int level = 0; level < 7; ++level) {
            Dpf::Node l, r;
            dpf.ExpandNode(k0, node, level, &l, &r);
            node = ((x >> (6 - level)) & 1) ? r : l;
        }
        u128 manual, direct;
        dpf.Finalize(k0, node, &manual);
        dpf.EvalPoint(k0, x, &direct);
        EXPECT_EQ(manual, direct) << "x=" << x;
    }
}

TEST(DpfNodePrimitivesTest, RootEncodesParty) {
    Rng rng(17);
    const Dpf dpf(DpfParams{4, PrfKind::kAes128, 1});
    auto [k0, k1] = dpf.GenIndicator(3, rng);
    EXPECT_FALSE(dpf.Root(k0).t);
    EXPECT_TRUE(dpf.Root(k1).t);
}

// --- Level-order (SIMD-batched) range evaluation -----------------------------

TEST(DpfEvalRangeBatchedTest, MatchesDfsEvalRangeAcrossSeedsAndLevels) {
    // The frontier walk feeds the whole level through one Prg::ExpandBatch
    // (the AES-NI pipeline for kAes128, vector lanes for kChacha20); the
    // correction-word application is untouched, so the leaves must equal
    // the pruned-DFS EvalRange bit for bit — every PRF, tree depth, output
    // width, party, and subrange, including single-leaf ranges and ranges
    // touching the domain edges. ChaCha20 adds a 2^17 domain, whose deep
    // levels hold many full 8- and 16-seed vector lane groups plus a tail.
    for (PrfKind prf :
         {PrfKind::kAes128, PrfKind::kChacha20, PrfKind::kSipHash}) {
        for (int log_domain : {1, 2, 5, 10, 13, 17}) {
            if (log_domain == 17 && prf != PrfKind::kChacha20) continue;
            for (int out_words : {1, 3}) {
                Rng rng(1000 + log_domain);
                const Dpf dpf(DpfParams{log_domain, prf, out_words});
                const std::uint64_t domain = std::uint64_t{1} << log_domain;
                auto [k0, k1] =
                    dpf.GenIndicator(rng.Next64() % domain, rng);
                Dpf::RangeScratch scratch;
                for (int trial = 0; trial < 4; ++trial) {
                    std::uint64_t a = rng.Next64() % domain;
                    std::uint64_t b = rng.Next64() % domain;
                    if (a > b) std::swap(a, b);
                    const std::uint64_t begin = trial == 0 ? 0 : a;
                    const std::uint64_t end = trial == 0 ? domain : b + 1;
                    for (const DpfKey* key : {&k0, &k1}) {
                        std::vector<u128> ref;
                        dpf.EvalRange(*key, begin, end, &ref);
                        std::vector<u128> got(ref.size(), 0);
                        dpf.EvalRangeBatched(*key, begin, end, got.data(),
                                             &scratch);
                        ASSERT_EQ(got, ref)
                            << PrfKindName(prf) << " n=" << log_domain
                            << " w=" << out_words << " [" << begin << ","
                            << end << ") party " << key->party;
                    }
                }
            }
        }
    }
}

}  // namespace
}  // namespace gpudpf
