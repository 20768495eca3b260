// Minimal machine-readable bench output for CI perf-regression tracking:
// each bench that supports `--json=PATH` writes a flat name -> QPS map that
// scripts/check_bench_regression.py diffs against the previous run.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace gpudpf {
namespace bench {

struct JsonResult {
    std::string name;
    double qps = 0.0;
    // Optional per-request latency percentiles in milliseconds; written
    // only when has_latency is set (the regression checker flags p99
    // increases like it flags QPS drops).
    bool has_latency = false;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    // Optional streaming-serving metrics, written only when has_streaming
    // is set: submission-to-first-partial latency percentiles (flagged by
    // the regression checker like p99) and the fraction of requests that
    // missed their deadline.
    bool has_streaming = false;
    double first_partial_p50_ms = 0.0;
    double first_partial_p99_ms = 0.0;
    double deadline_miss_rate = 0.0;
    // Optional request-lifecycle reclamation metrics (the cancel-heavy
    // serving mode), written only when has_skip is set: the fraction of
    // requests cancelled by the driver, and how much dispatched work the
    // JobContext kill switch reclaimed (ServingFrontEnd::Counters).
    bool has_skip = false;
    double cancel_rate = 0.0;
    double jobs_skipped = 0.0;
    double shards_skipped = 0.0;
    // Optional CPU-kernel metadata, written only when has_kernel is set:
    // which kernel strategy and table layout produced the row, and the
    // row's single-thread QPS relative to the scalar reference on the same
    // layout (the regression checker prints it, never flags it — the
    // speedup tracks host AES-NI support, not code performance).
    bool has_kernel = false;
    std::string kernel;
    std::string layout;
    double speedup_vs_scalar = 0.0;
    // Optional replicated-serving metrics (bench_replicated_serving),
    // written only when has_net is set: the replica count behind the
    // router, how many lookups needed the failover retry (rerouted), the
    // failed attempts that triggered them, and how many replicas were
    // healthy when the run ended.
    bool has_net = false;
    double replicas = 0.0;
    double failovers = 0.0;
    double transport_errors = 0.0;
    double healthy_replicas = 0.0;
    // Optional sharded-fleet metrics (bench_sharded_fleet), written only
    // when has_shard is set: the shard count behind the sharded router,
    // the mean rows scanned per node per request (the 1/K per-node-work
    // evidence), and the failover count of each shard (the smoke test's
    // proof that a killed shard owner was covered by a sibling replica).
    bool has_shard = false;
    double shards = 0.0;
    double rows_per_request = 0.0;
    std::vector<double> shard_failovers;
    // Optional construction-cost metrics, written only when has_build is
    // set: wall time to build a full service (physical tables included)
    // vs its planning-only twin (what a router process builds).
    bool has_build = false;
    double build_full_ms = 0.0;
    double build_planning_ms = 0.0;
    // Optional ISA metadata, written only when has_isa is set: which
    // AccumulateIsa (accum_* rows) or ChaCha20 PRG path (prg_chacha20_*
    // rows) of bench_sharded_throughput produced the row.
    // speedup_vs_scalar above carries the row's speedup over the scalar
    // path of the same section.
    bool has_isa = false;
    std::string isa;
};

// Nearest-rank percentile (p in [0, 1]) of an ascending-sorted sample.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    std::size_t rank = static_cast<std::size_t>(p * sorted.size());
    if (rank >= sorted.size()) rank = sorted.size() - 1;
    return sorted[rank];
}

// Extracts the PATH of a `--json=PATH` argument, if present; other
// arguments are left to the bench's own positional parsing.
inline const char* JsonPathFromArgs(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0) return argv[i] + 7;
    }
    return nullptr;
}

// The arguments that are not `--json=PATH`, in order, for the bench's own
// positional parsing.
inline std::vector<const char*> PositionalArgs(int argc, char** argv) {
    std::vector<const char*> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--json=", 0) != 0) {
            positional.push_back(argv[i]);
        }
    }
    return positional;
}

inline bool WriteBenchJson(const char* path, const std::string& bench,
                           const std::vector<JsonResult>& results) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "failed to open %s for writing\n", path);
        return false;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"results\":[", bench.c_str());
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::fprintf(f, "%s{\"name\":\"%s\",\"qps\":%.6g",
                     i == 0 ? "" : ",", results[i].name.c_str(),
                     results[i].qps);
        if (results[i].has_latency) {
            std::fprintf(f, ",\"p50_ms\":%.6g,\"p95_ms\":%.6g,\"p99_ms\":%.6g",
                         results[i].p50_ms, results[i].p95_ms,
                         results[i].p99_ms);
        }
        if (results[i].has_streaming) {
            std::fprintf(f,
                         ",\"first_partial_p50_ms\":%.6g"
                         ",\"first_partial_p99_ms\":%.6g"
                         ",\"deadline_miss_rate\":%.6g",
                         results[i].first_partial_p50_ms,
                         results[i].first_partial_p99_ms,
                         results[i].deadline_miss_rate);
        }
        if (results[i].has_skip) {
            std::fprintf(f,
                         ",\"cancel_rate\":%.6g,\"jobs_skipped\":%.6g"
                         ",\"shards_skipped\":%.6g",
                         results[i].cancel_rate, results[i].jobs_skipped,
                         results[i].shards_skipped);
        }
        if (results[i].has_kernel) {
            std::fprintf(f,
                         ",\"kernel\":\"%s\",\"layout\":\"%s\""
                         ",\"speedup_vs_scalar\":%.6g",
                         results[i].kernel.c_str(),
                         results[i].layout.c_str(),
                         results[i].speedup_vs_scalar);
        }
        if (results[i].has_net) {
            std::fprintf(f,
                         ",\"replicas\":%.6g,\"failovers\":%.6g"
                         ",\"transport_errors\":%.6g"
                         ",\"healthy_replicas\":%.6g",
                         results[i].replicas, results[i].failovers,
                         results[i].transport_errors,
                         results[i].healthy_replicas);
        }
        if (results[i].has_shard) {
            std::fprintf(f,
                         ",\"shards\":%.6g,\"rows_per_request\":%.6g"
                         ",\"shard_failovers\":[",
                         results[i].shards, results[i].rows_per_request);
            for (std::size_t j = 0; j < results[i].shard_failovers.size();
                 ++j) {
                std::fprintf(f, "%s%.6g", j == 0 ? "" : ",",
                             results[i].shard_failovers[j]);
            }
            std::fprintf(f, "]");
        }
        if (results[i].has_build) {
            std::fprintf(f,
                         ",\"build_full_ms\":%.6g,\"build_planning_ms\":%.6g",
                         results[i].build_full_ms,
                         results[i].build_planning_ms);
        }
        if (results[i].has_isa) {
            std::fprintf(f, ",\"isa\":\"%s\",\"speedup_vs_scalar\":%.6g",
                         results[i].isa.c_str(),
                         results[i].speedup_vs_scalar);
        }
        std::fprintf(f, "}");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    return true;
}

}  // namespace bench
}  // namespace gpudpf
