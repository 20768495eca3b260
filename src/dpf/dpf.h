// Distributed point function (DPF) — the paper's core cryptographic
// primitive (Section 3.1, construction of Gilboa-Ishai [32] with the
// correction-word refinement of Boyle-Gilboa-Ishai [12]).
//
// Gen(alpha, beta) produces two keys; Eval(k, x) produces additive shares in
// Z_2^128 such that Eval(k0,x) + Eval(k1,x) == (x == alpha ? beta : 0).
// Communication is O(lambda * log L): one 128-bit seed, log2(L) correction
// words of 128+2 bits, and `out_words` final output correction words.
//
// The class exposes both whole-domain evaluation (the reference
// implementation all GPU kernels are checked against) and node-level
// primitives (Root / ExpandNode / Finalize) from which the parallel kernels
// in src/kernels/ are composed.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/u128.h"
#include "src/crypto/prg.h"

namespace gpudpf {

// Static parameters of a DPF instance.
struct DpfParams {
    // Tree depth; domain size L = 2^log_domain. Must be in [1, 40].
    int log_domain = 20;
    // PRF used for node expansion (paper Section 3.2.6).
    PrfKind prf = PrfKind::kChacha20;
    // Output width in 128-bit words (1 for PIR indicator shares; wider
    // outputs support other DPF applications and are exercised by tests).
    int out_words = 1;
};

// Per-level correction word.
struct CorrectionWord {
    u128 seed = 0;
    bool t_left = false;
    bool t_right = false;
};

// One party's DPF key.
struct DpfKey {
    int party = 0;  // 0 or 1
    u128 root_seed = 0;
    std::vector<CorrectionWord> cw;  // log_domain entries
    std::vector<u128> final_cw;      // out_words entries
    DpfParams params;

    // Size of the serialized key in bytes — the client->server upload cost
    // (Table 4 "Bytes" column).
    std::size_t SerializedSize() const;
    std::vector<std::uint8_t> Serialize() const;
    static DpfKey Deserialize(const std::uint8_t* data, std::size_t len);
};

class Dpf {
  public:
    explicit Dpf(DpfParams params);

    const DpfParams& params() const { return params_; }
    std::uint64_t domain_size() const {
        return std::uint64_t{1} << params_.log_domain;
    }
    const Prg& prg() const { return prg_; }

    // Generates the two keys for the point function alpha -> beta.
    // beta.size() must equal params.out_words.
    std::pair<DpfKey, DpfKey> Gen(std::uint64_t alpha,
                                  const std::vector<u128>& beta,
                                  Rng& rng) const;

    // Convenience: beta = (1, 0, ...) — the PIR indicator.
    std::pair<DpfKey, DpfKey> GenIndicator(std::uint64_t alpha, Rng& rng) const;

    // Evaluates the share at a single point x; out must hold out_words words.
    void EvalPoint(const DpfKey& key, std::uint64_t x, u128* out) const;

    // Sequential full-domain evaluation (iterative DFS with O(log L) state).
    // out is resized to L * out_words, laid out point-major.
    void EvalFullDomain(const DpfKey& key, std::vector<u128>* out) const;

    // Evaluates the contiguous leaf range [begin, end) by pruned DFS:
    // subtrees disjoint from the range are never expanded, so the cost is
    // O((end - begin) + log L) node expansions. out is resized to
    // (end - begin) * out_words, point-major, with leaf x stored at offset
    // (x - begin). This is the per-shard primitive of the sharded server
    // answer engine. Leaf values are identical to EvalFullDomain's.
    void EvalRange(const DpfKey& key, std::uint64_t begin, std::uint64_t end,
                   std::vector<u128>* out) const;

    // Reusable frontier buffers for EvalRangeBatched, so a kernel that
    // walks many tiles pays the allocations once.
    struct RangeScratch {
        std::vector<u128> seeds[2];
        std::vector<std::uint8_t> ts[2];
        std::vector<u128> child_left;
        std::vector<u128> child_right;
    };

    // EvalRange by level-order (breadth-first) traversal: the covering node
    // frontier of [begin, end) at each level — at most end - begin + 1
    // nodes — is expanded in one Prg::ExpandBatch call, so the AES MMO
    // PRG runs hardware-pipelined and ChaCha20 runs 8 or 16 seeds per
    // vector instruction instead of one node at a time. The
    // per-node correction-word math is exactly ExpandNode's, so leaf values
    // are bit-identical to EvalRange for every PrfKind. out receives
    // (end - begin) * out_words words, point-major (not resized — the
    // caller sizes it, which lets kernels pack several queries' leaves
    // into one buffer). Peak scratch is O(end - begin) nodes; callers
    // chunk their ranges (e.g. per storage tile) to bound it.
    void EvalRangeBatched(const DpfKey& key, std::uint64_t begin,
                          std::uint64_t end, u128* out,
                          RangeScratch* scratch) const;

    // --- Node-level primitives for parallel kernels -----------------------

    // Expansion state of one tree node.
    struct Node {
        u128 seed = 0;
        bool t = false;
    };

    // Root node of a key (level 0 state, before any correction words).
    Node Root(const DpfKey& key) const;

    // Expands `parent` at tree level `level` (0-based: the level of the
    // parent) into its two children, applying the level's correction word.
    void ExpandNode(const DpfKey& key, const Node& parent, int level,
                    Node* left, Node* right) const;

    // Converts a leaf node into out_words output share words.
    void Finalize(const DpfKey& key, const Node& leaf, u128* out) const;

  private:
    DpfParams params_;
    Prg prg_;
};

}  // namespace gpudpf
