// perfbench: the repository's benchmark for private lookups.
//
//   perfbench --workload <lm-small|taobao-large|sharded-fleet> --seed N
//             --seconds S --trace <0|1> [--span-file PATH]
//   perfbench --known-fault --seed N
//
// One run builds the workload's world nine times (setup_s is the median),
// warms it up, then measures for S seconds: an open loop at the workload's
// fixed rate for 3/4 of S, and at least 200 lookups (latency timed from each
// lookup's due time), and a closed loop of nproc callers for the rest
// (throughput). Every lookup's
// result is checked against the generating embedding table and the
// planner's fixed per-inference communication.
//
// --trace 1 repeats the measured phases with spans recorded around every
// call the benchmark makes into the serving path, then replays a sample
// of the workload's lookups through each layer's public function, and
// reports per-layer numbers (span self time) beside the end-to-end figures
// of both passes, so the tracing overhead shows.
//
// The human-readable report goes to stderr; the last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cpuid.h"
#include "src/common/numa.h"
#include "src/core/serving.h"
#include "src/crypto/prg.h"
#include "src/kernels/accumulate.h"
#include "src/kernels/cpu_kernel.h"
#include "src/net/wire.h"
#include "src/pir/shard_merge.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using gpudpf::PirResponse;
using gpudpf::PrivateEmbeddingService;
using gpudpf::ServingFrontEnd;
using LookupResult = PrivateEmbeddingService::LookupResult;

constexpr int kSetupRepeats = 9;
constexpr double kWarmupSeconds = 1.0;
constexpr double kOpenShare = 0.75;
// Figures come from the least-disturbed window of a phase (stats.h says
// why): closed-loop throughput from up to kClosedWindows equal time windows
// of at least kMinPerWindow completions each; open-loop medians from
// windows of about kMedianWindowSeconds of lookups, which average out a
// median's sampling noise; the p95 from windows of the fewest lookups it
// needs (200), short enough to fall between interference episodes.
constexpr std::size_t kClosedWindows = 20;
constexpr std::size_t kMinPerWindow = 200;
constexpr double kMedianWindowSeconds = 1.0;
constexpr std::size_t kKnownFaultLookups = 64;
// Timed repetitions of the crypto and kernel micro-calls in the replay.
constexpr int kMicroReps = 24;
constexpr std::size_t kPrgSeeds = 4096;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    bool known_fault = false;
    std::string span_file;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

int Nproc() {
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void SleepUntilNs(std::int64_t t) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t)));
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------------------
// Arguments, environment and fingerprint.

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--known-fault") {
            args->known_fault = true;
            continue;
        }
        if (i + 1 >= argc) {
            *error = "missing value for " + flag;
            return false;
        }
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args->workload = value;
        } else if (flag == "--seed") {
            args->seed = std::strtoull(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0') {
                *error = "bad --seed " + value;
                return false;
            }
        } else if (flag == "--seconds") {
            args->seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
                *error = "bad --seconds " + value;
                return false;
            }
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                *error = "--trace takes 0 or 1";
                return false;
            }
            args->trace = value == "1";
        } else if (flag == "--span-file") {
            args->span_file = value;
        } else {
            *error = "unknown flag " + flag;
            return false;
        }
    }
    if (!args->known_fault && FindWorkload(args->workload) == nullptr) {
        *error = "unknown or missing --workload '" + args->workload + "'";
        return false;
    }
    return true;
}

// GPUDPF_* variables switch kernels, layouts and ISAs process-wide; a run
// with one set would compare a different program than the one built.
std::vector<std::string> GpudpfVariables() {
    std::vector<std::string> found;
    for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
        if (std::strncmp(*env, "GPUDPF_", 7) == 0) found.emplace_back(*env);
    }
    return found;
}

void PrintFingerprint(const char* workload,
                      const gpudpf::ServiceConfig& config) {
    std::fprintf(stderr, "host: nproc=%d numa_nodes=%d features=\"%s\"\n",
                 Nproc(), gpudpf::GetNumaTopology().num_nodes,
                 gpudpf::CpuFeatureSummary().c_str());
    std::fprintf(stderr,
                 "setting: workload=%s cpu_kernel=%s accumulate=%s "
                 "table_layout=%s prf=%s\n",
                 workload, gpudpf::CpuKernelKindName(config.cpu_kernel),
                 gpudpf::AccumulateIsaName(gpudpf::CurrentAccumulateIsa()),
                 gpudpf::TableLayoutName(config.table_layout),
                 gpudpf::PrfKindName(config.prf));
}

// ---------------------------------------------------------------------------
// Output checks.

// Checks every lookup against values computed apart from the PIR path: the
// generating embedding table, and the planner's fixed per-inference
// communication (the oblivious-plan property). Thread-safe.
class Checker {
  public:
    Checker(const gpudpf::EmbeddingTable* emb,
            const PrivateEmbeddingService& service)
        : emb_(emb),
          upload_(service.planner().UploadBytesPerServer()),
          download_(service.planner().DownloadBytes(
              static_cast<std::size_t>(emb->dim()) * sizeof(float))) {}

    void Check(const std::vector<std::uint64_t>& wanted,
               const LookupResult& result) {
        const std::size_t row_bytes =
            static_cast<std::size_t>(emb_->dim()) * sizeof(float);
        std::uint64_t delivered = 0;
        if (result.retrieved.size() != wanted.size() ||
            result.embeddings.size() != wanted.size()) {
            Fail("result is not aligned with the wanted list");
            return;
        }
        for (std::size_t i = 0; i < wanted.size(); ++i) {
            const std::vector<float>& got = result.embeddings[i];
            if (got.size() != static_cast<std::size_t>(emb_->dim())) {
                Fail("embedding of the wrong width");
                return;
            }
            if (result.retrieved[i]) {
                if (std::memcmp(got.data(), emb_->Row(wanted[i]), row_bytes) !=
                    0) {
                    Fail("delivered embedding differs from table row " +
                         std::to_string(wanted[i]));
                    return;
                }
                ++delivered;
            } else {
                for (const float v : got) {
                    std::uint32_t bits = 0;
                    std::memcpy(&bits, &v, sizeof(bits));
                    if (bits != 0) {
                        Fail("undelivered slot is not zero");
                        return;
                    }
                }
            }
        }
        if (result.upload_bytes != upload_ ||
            result.download_bytes != download_) {
            Fail("communication differs from the planner's fixed cost");
            return;
        }
        delivered_.fetch_add(delivered);
        checked_.fetch_add(1);
    }

    void Fail(const std::string& why) {
        std::lock_guard<std::mutex> lock(mu_);
        if (ok_) first_error_ = why;
        ok_ = false;
    }

    bool ok() const {
        std::lock_guard<std::mutex> lock(mu_);
        return ok_;
    }
    std::string first_error() const {
        std::lock_guard<std::mutex> lock(mu_);
        return first_error_;
    }
    std::uint64_t delivered() const { return delivered_.load(); }
    std::uint64_t checked() const { return checked_.load(); }
    std::size_t upload() const { return upload_; }
    std::size_t download() const { return download_; }

  private:
    const gpudpf::EmbeddingTable* emb_;
    std::size_t upload_;
    std::size_t download_;
    std::atomic<std::uint64_t> delivered_{0};
    std::atomic<std::uint64_t> checked_{0};
    mutable std::mutex mu_;
    bool ok_ = true;
    std::string first_error_;
};

// ---------------------------------------------------------------------------
// The serving path: warm-up, open loop, closed loop.

struct Run {
    const WorkloadInfo* workload = nullptr;
    Args args;
    Inputs inputs;
    gpudpf::ServiceConfig config;
    std::unique_ptr<World> world;
    std::unique_ptr<Checker> checker;
    std::unique_ptr<WantedSource> wanted;
    int nproc = 1;
    std::atomic<std::uint64_t> next_request{1};
    std::atomic<std::uint64_t> attempted{0};
    std::atomic<std::uint64_t> failed{0};
    std::mutex error_mu;
    std::string first_failure;

    std::uint64_t NewRequest() { return next_request.fetch_add(1); }

    void Failed(const std::string& why) {
        failed.fetch_add(1);
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_failure.empty()) first_failure = why;
    }
};

// What one pass over the serving path measured.
struct PassFigures {
    std::vector<double> latency_ms;        // open loop, from due time
    std::vector<double> first_partial_ms;  // open loop, from due time
    std::vector<double> lateness_ms;       // open-loop generator
    double closed_lookups = 0.0;
    double closed_seconds = 0.0;
    double closed_rate = 0.0;  // best window, lookups/s
    std::uint64_t checked = 0;
    std::uint64_t delivered = 0;
};

void OpenLoopInProcess(Run& run, std::size_t n, SpanRecorder* rec,
                       PassFigures* fig) {
    PrivateEmbeddingService& service = *run.world->service;
    ServingFrontEnd& front_end = service.front_end();
    auto client = service.MakeClient();
    std::vector<OpenLoopRecord> records(n);
    std::vector<std::int64_t> submitted(n, 0);
    std::vector<std::uint64_t> request(n, 0);
    // Root span ids, taken up front so the callbacks can parent their spans.
    std::vector<std::uint64_t> root(n, 0);
    std::vector<const std::vector<std::uint64_t>*> wanted(n);
    std::unique_ptr<std::atomic<std::int64_t>[]> first(
        new std::atomic<std::int64_t>[n]);
    std::unique_ptr<std::atomic<std::int64_t>[]> done(
        new std::atomic<std::int64_t>[n]);
    for (std::size_t i = 0; i < n; ++i) {
        first[i].store(0);
        done[i].store(0);
    }
    std::vector<ServingFrontEnd::RequestHandle> handles(n);
    std::atomic<std::size_t> completions{0};
    std::size_t accepted = 0;

    OpenLoopSchedule schedule;
    schedule.start_ns = NowNs() + 1'000'000;
    schedule.rate_per_s = run.workload->open_rate_per_s;
    for (std::size_t i = 0; i < n; ++i) {
        wanted[i] = &run.wanted->Next();
        request[i] = run.NewRequest();
        if (rec != nullptr) root[i] = rec->NewId();
        records[i].due_ns = schedule.DueNs(i);
        SleepUntilNs(records[i].due_ns);
        ServingFrontEnd::SubmitOptions options;
        const std::uint64_t parent = root[i];
        const std::uint64_t rid = request[i];
        options.on_partial = [&first, rec, parent, rid,
                              i](const ServingFrontEnd::TablePartial&) {
            const std::int64_t now = NowNs();
            std::int64_t unset = 0;
            first[i].compare_exchange_strong(unset, now);
            if (rec != nullptr) rec->Add("core.partial", now, now, parent, rid);
        };
        options.on_complete = [&done, &completions, rec, parent, rid,
                               i](gpudpf::RequestStatus) {
            const std::int64_t now = NowNs();
            if (rec != nullptr) rec->Add("core.complete", now, now, parent, rid);
            done[i].store(now);
            completions.fetch_add(1);
        };
        records[i].sent_ns = NowNs();
        handles[i] = front_end.SubmitRequest({client.get(), *wanted[i]},
                                             std::move(options));
        submitted[i] = NowNs();
        if (handles[i].ok()) ++accepted;
    }
    while (completions.load() < accepted) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (std::size_t i = 0; i < n; ++i) {
        run.attempted.fetch_add(1);
        if (!handles[i].ok()) {
            run.Failed(std::string("admission ") +
                       gpudpf::AdmissionStatusName(handles[i].admission()));
            continue;
        }
        try {
            const LookupResult result = handles[i].Result();
            run.checker->Check(*wanted[i], result);
        } catch (const std::exception& e) {
            run.Failed(e.what());
            continue;
        }
        records[i].done_ns = done[i].load();
        const std::int64_t first_ns = first[i].load();
        fig->latency_ms.push_back(LatencyMs(records[i]));
        fig->first_partial_ms.push_back(
            static_cast<double>(first_ns - records[i].due_ns) / 1e6);
        fig->lateness_ms.push_back(LatenessMs(records[i]));
        if (rec != nullptr) {
            Span span;
            span.id = root[i];
            span.request = request[i];
            span.name = "serve.lookup";
            span.start_ns = records[i].due_ns;
            span.end_ns = records[i].done_ns;
            rec->Add(std::move(span));
            rec->Add("core.submit", records[i].sent_ns, submitted[i], root[i],
                     request[i]);
            rec->Add("core.wait_first_partial", submitted[i], first_ns,
                     root[i], request[i]);
            rec->Add("core.wait_result", first_ns, records[i].done_ns, root[i],
                     request[i]);
        }
    }
}

void OpenLoopFleet(Run& run, std::size_t n, SpanRecorder* rec,
                   PassFigures* fig) {
    gpudpf::net::ShardedRouter& router = *run.world->router;
    const int senders = run.nproc;
    std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients;
    for (int s = 0; s < senders; ++s) {
        clients.push_back(run.world->service->MakeClient());
    }
    std::vector<OpenLoopRecord> records(n);
    std::vector<char> ok(n, 0);
    std::atomic<std::size_t> next{0};
    OpenLoopSchedule schedule;
    schedule.start_ns = NowNs() + 1'000'000;
    schedule.rate_per_s = run.workload->open_rate_per_s;
    std::vector<std::thread> threads;
    for (int s = 0; s < senders; ++s) {
        threads.emplace_back([&, s] {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= n) return;
                const std::vector<std::uint64_t>& wanted = run.wanted->Next();
                const std::uint64_t request = run.NewRequest();
                OpenLoopRecord& r = records[i];
                r.due_ns = schedule.DueNs(i);
                SleepUntilNs(r.due_ns);
                r.sent_ns = NowNs();
                run.attempted.fetch_add(1);
                try {
                    auto outcome = router.Lookup(clients[s].get(), wanted);
                    r.done_ns = NowNs();
                    run.checker->Check(wanted, outcome.result);
                    ok[i] = 1;
                } catch (const std::exception& e) {
                    run.Failed(e.what());
                    continue;
                }
                if (rec != nullptr) {
                    const std::uint64_t root = rec->Add(
                        "serve.lookup", r.due_ns, r.done_ns, 0, request);
                    rec->Add("net.router_lookup", r.sent_ns, r.done_ns, root,
                             request);
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    for (std::size_t i = 0; i < n; ++i) {
        if (!ok[i]) continue;
        fig->latency_ms.push_back(LatencyMs(records[i]));
        // The router streams nothing: the first table data a caller sees
        // is the whole merged result.
        fig->first_partial_ms.push_back(LatencyMs(records[i]));
        fig->lateness_ms.push_back(LatenessMs(records[i]));
    }
}

// nproc callers, each waiting for its reply before sending the next lookup.
void ClosedLoop(Run& run, double seconds, SpanRecorder* rec,
                PassFigures* fig) {
    const bool sharded = run.workload->sharded;
    std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients;
    for (int c = 0; c < run.nproc; ++c) {
        clients.push_back(run.world->service->MakeClient());
    }
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::int64_t> last_done{0};
    std::vector<std::vector<std::int64_t>> done_ns(run.nproc);
    const std::int64_t start = NowNs();
    const std::int64_t end =
        start + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (int c = 0; c < run.nproc; ++c) {
        threads.emplace_back([&, c] {
            std::int64_t mine = start;
            while (NowNs() < end) {
                const std::vector<std::uint64_t>& wanted = run.wanted->Next();
                const std::uint64_t request = run.NewRequest();
                run.attempted.fetch_add(1);
                const std::int64_t t0 = NowNs();
                try {
                    const LookupResult result =
                        sharded ? run.world->router
                                      ->Lookup(clients[c].get(), wanted)
                                      .result
                                : clients[c]->Lookup(wanted);
                    mine = NowNs();
                    run.checker->Check(wanted, result);
                } catch (const std::exception& e) {
                    run.Failed(e.what());
                    continue;
                }
                completed.fetch_add(1);
                done_ns[c].push_back(mine);
                if (rec != nullptr) {
                    rec->Add(sharded ? "net.router_lookup" : "core.lookup", t0,
                             mine, 0, request);
                }
            }
            std::int64_t seen = last_done.load();
            while (mine > seen && !last_done.compare_exchange_weak(seen, mine)) {
            }
        });
    }
    for (auto& t : threads) t.join();
    fig->closed_lookups = static_cast<double>(completed.load());
    fig->closed_seconds = Seconds(last_done.load() - start);
    std::vector<std::int64_t> all;
    for (const auto& mine : done_ns) all.insert(all.end(), mine.begin(), mine.end());
    // Too few completions to window (taobao-large completes a hundred or
    // so, in bursts of one batch): the whole phase, up to its last
    // completion.
    const std::size_t windows =
        std::min(kClosedWindows, all.size() / kMinPerWindow);
    fig->closed_rate =
        windows <= 1 ? fig->closed_lookups / fig->closed_seconds
                     : BestWindowRate(all, start, end, static_cast<int>(windows));
}

std::size_t OpenLoopLookups(const Run& run) {
    const double planned =
        run.workload->open_rate_per_s * kOpenShare * run.args.seconds;
    return std::max(MinSamplesForPercentile(0.95),
                    static_cast<std::size_t>(std::llround(planned)));
}

PassFigures ServingPass(Run& run, SpanRecorder* rec) {
    PassFigures fig;
    const std::uint64_t checked0 = run.checker->checked();
    const std::uint64_t delivered0 = run.checker->delivered();
    const std::size_t n = OpenLoopLookups(run);
    if (run.workload->sharded) {
        OpenLoopFleet(run, n, rec, &fig);
    } else {
        OpenLoopInProcess(run, n, rec, &fig);
    }
    ClosedLoop(run, (1.0 - kOpenShare) * run.args.seconds, rec, &fig);
    fig.checked = run.checker->checked() - checked0;
    fig.delivered = run.checker->delivered() - delivered0;
    return fig;
}

std::vector<Metric> EndToEnd(const Run& run, const PassFigures& fig,
                             double setup_s) {
    const std::size_t median_window = std::max(
        MinSamplesForPercentile(0.5),
        static_cast<std::size_t>(run.workload->open_rate_per_s *
                                 kMedianWindowSeconds));
    const std::size_t tail_window = MinSamplesForPercentile(0.95);
    double p50 = 0.0;
    double p95 = 0.0;
    double first_p50 = 0.0;
    if (!BestWindowPercentile(fig.latency_ms, median_window, 0.5, &p50) ||
        !BestWindowPercentile(fig.latency_ms, tail_window, 0.95, &p95) ||
        !BestWindowPercentile(fig.first_partial_ms, median_window, 0.5,
                              &first_p50)) {
        throw std::runtime_error(
            "open loop gave too few lookups for a p95 with 10 beyond it");
    }
    const double checked = std::max<double>(1.0, fig.checked);
    return {
        {"setup_s", setup_s, "s"},
        {"lookups_per_s", fig.closed_rate, "1/s"},
        {"lookup_p50_ms", p50, "ms"},
        {"lookup_p95_ms", p95, "ms"},
        {"first_partial_p50_ms", first_p50, "ms"},
        {"upload_bytes_per_lookup",
         static_cast<double>(run.checker->upload()), "B"},
        {"download_bytes_per_lookup",
         static_cast<double>(run.checker->download()), "B"},
        {"embeddings_per_lookup", static_cast<double>(fig.delivered) / checked,
         "count"},
    };
}

// ---------------------------------------------------------------------------
// The traced replay: a sample of the workload's own lookups, one public
// call at a time.

struct ReplayTables {
    std::unique_ptr<gpudpf::PirTable> full;
    std::unique_ptr<gpudpf::PirTable> hot;
};

// A table of the workload's geometry with the service's row contents: each
// row carries its owner's embedding followed by the co-located partners'.
std::unique_ptr<gpudpf::PirTable> BuildReplayTable(
    const PrivateEmbeddingService& service, const gpudpf::EmbeddingTable& emb,
    const std::vector<std::uint64_t>& owners) {
    const std::size_t base = static_cast<std::size_t>(emb.dim()) * sizeof(float);
    const std::size_t row_bytes = service.layout().RowBytes(base);
    auto table = std::make_unique<gpudpf::PirTable>(
        owners.size(), row_bytes, service.config().table_layout);
    std::vector<std::uint8_t> row(row_bytes);
    for (std::uint64_t r = 0; r < owners.size(); ++r) {
        std::fill(row.begin(), row.end(), 0);
        std::memcpy(row.data(), emb.Row(owners[r]), base);
        const auto& partners = service.layout().Partners(owners[r]);
        for (std::size_t j = 0; j < partners.size(); ++j) {
            std::memcpy(row.data() + (j + 1) * base, emb.Row(partners[j]),
                        base);
        }
        table->SetEntry(r, row.data(), row.size());
    }
    return table;
}

ReplayTables BuildReplayTables(const PrivateEmbeddingService& service,
                               const gpudpf::EmbeddingTable& emb) {
    ReplayTables tables;
    std::vector<std::uint64_t> owners(emb.vocab());
    for (std::uint64_t i = 0; i < owners.size(); ++i) owners[i] = i;
    tables.full = BuildReplayTable(service, emb, owners);
    if (service.layout().has_hot_table()) {
        owners.resize(service.layout().hot_size());
        for (std::uint64_t s = 0; s < owners.size(); ++s) {
            owners[s] = service.layout().HotContent(s);
        }
        tables.hot = BuildReplayTable(service, emb, owners);
    }
    return tables;
}

// Counts the replay takes per lookup (identical for every lookup, since the
// plan is oblivious).
struct ReplayCounts {
    double keys = 0;
    double jobs = 0;
    double rows = 0;
    double row_bytes = 0;
    double request_bytes = 0;
    double partial_bytes = 0;
    double accumulate_bytes = 0;
};

std::vector<gpudpf::AnswerEngine::TableJob> Bind(
    const PrivateEmbeddingService::PreparedLookup& prep,
    const ReplayTables& tables) {
    std::vector<gpudpf::AnswerEngine::TableJob> jobs;
    auto add = [&](const gpudpf::PbrSession::BinJobs& bin_jobs,
                   const gpudpf::PirTable* table) {
        auto bound = gpudpf::PbrSession::BindJobs(bin_jobs, table, {});
        jobs.insert(jobs.end(), bound.begin(), bound.end());
    };
    add(prep.full_server0, tables.full.get());
    add(prep.full_server1, tables.full.get());
    if (tables.hot != nullptr) {
        add(prep.hot_server0, tables.hot.get());
        add(prep.hot_server1, tables.hot.get());
    }
    return jobs;
}

// Splits AnswerBatch's responses back into (full s0, full s1, hot s0, hot
// s1), in Bind's order.
std::vector<std::vector<PirResponse>> SplitResponses(
    const PrivateEmbeddingService::PreparedLookup& prep,
    const std::vector<PirResponse>& responses) {
    const std::size_t sizes[4] = {
        prep.full_server0.jobs.size(), prep.full_server1.jobs.size(),
        prep.hot_server0.jobs.size(), prep.hot_server1.jobs.size()};
    std::vector<std::vector<PirResponse>> parts(4);
    std::size_t at = 0;
    for (int p = 0; p < 4; ++p) {
        for (std::size_t j = 0; j < sizes[p] && at < responses.size(); ++j) {
            parts[p].push_back(responses[at++]);
        }
    }
    return parts;
}

void ReplayLookup(Run& run, const std::vector<std::uint64_t>& wanted,
                  const PrivateEmbeddingService& answering,
                  PrivateEmbeddingService::Client* client,
                  gpudpf::PbrSession* full_session,
                  gpudpf::PbrSession* hot_session, gpudpf::Rng* rng,
                  const ReplayTables& tables,
                  const gpudpf::AnswerEngine& engine, SpanRecorder* rec,
                  ReplayCounts* counts) {
    PrivateEmbeddingService& service = *run.world->service;
    const std::uint64_t rid = run.NewRequest();
    run.attempted.fetch_add(1);
    ScopedSpan root(rec, "replay.lookup", 0, rid);
    const std::uint64_t parent = root.id();

    // Client side, one layer at a time.
    gpudpf::InferencePlan plan;
    {
        ScopedSpan s(rec, "codesign.plan", parent, rid);
        plan = service.planner().Plan(wanted, *rng);
    }
    gpudpf::PbrSession::Request full_req;
    gpudpf::PbrSession::Request hot_req;
    {
        ScopedSpan s(rec, "batchpir.keygen", parent, rid);
        full_req = full_session->BuildRequest(plan.full_plan);
    }
    if (hot_session != nullptr) {
        ScopedSpan s(rec, "batchpir.keygen", parent, rid);
        hot_req = hot_session->BuildRequest(plan.hot_plan);
    }
    counts->keys = static_cast<double>(
        full_req.keys_for_server0.size() + full_req.keys_for_server1.size() +
        hot_req.keys_for_server0.size() + hot_req.keys_for_server1.size());
    for (const auto* keys :
         {&full_req.keys_for_server0, &full_req.keys_for_server1}) {
        ScopedSpan s(rec, "batchpir.parse", parent, rid);
        full_session->ParseJobs(*keys);
    }
    if (hot_session != nullptr) {
        for (const auto* keys :
             {&hot_req.keys_for_server0, &hot_req.keys_for_server1}) {
            ScopedSpan s(rec, "batchpir.parse", parent, rid);
            hot_session->ParseJobs(*keys);
        }
    }
    PrivateEmbeddingService::PreparedLookup prep;
    {
        ScopedSpan s(rec, "core.prepare", parent, rid);
        prep = client->Prepare(wanted, /*keep_wire_keys=*/true);
    }

    // Server side: both servers' jobs of this lookup in one engine batch.
    const auto jobs = Bind(prep, tables);
    std::vector<PirResponse> responses;
    {
        ScopedSpan s(rec, "pir.answer", parent, rid);
        responses = engine.AnswerBatch(jobs);
    }
    counts->jobs = static_cast<double>(jobs.size());
    counts->rows = 0;
    for (const auto& job : jobs) counts->rows += static_cast<double>(job.job.num_rows);
    counts->row_bytes = static_cast<double>(tables.full->entry_bytes());
    const auto parts = SplitResponses(prep, responses);

    // Client reconstruction.
    PrivateEmbeddingService::TablePartial full;
    PrivateEmbeddingService::TablePartial hot;
    {
        ScopedSpan s(rec, "core.reconstruct", parent, rid);
        full = client->ReconstructTablePartial(prep, false, parts[0], parts[1]);
    }
    if (tables.hot != nullptr) {
        ScopedSpan s(rec, "core.reconstruct", parent, rid);
        hot = client->ReconstructTablePartial(prep, true, parts[2], parts[3]);
    }
    LookupResult result;
    {
        ScopedSpan s(rec, "core.reconstruct", parent, rid);
        result = answering.FinalizeLookupResult(
            prep, full, tables.hot != nullptr ? &hot : nullptr);
    }
    run.checker->Check(wanted, result);

    // Sharded answer: every shard scans its window of every bin; the merged
    // partials must equal the unsharded share bit for bit.
    std::vector<std::vector<std::vector<PirResponse>>> shard_parts;
    for (std::size_t k = 0; k < kFleetShards; ++k) {
        auto windowed = jobs;
        const auto full_window = gpudpf::ShardRangeOf(
            service.full_pbr().bin_size(), kFleetShards, k);
        for (std::size_t j = 0; j < windowed.size(); ++j) {
            auto window = full_window;
            if (windowed[j].table == tables.hot.get()) {
                window = gpudpf::ShardRangeOf(service.hot_pbr()->bin_size(),
                                              kFleetShards, k);
            }
            windowed[j].job.eval_begin = window.begin;
            windowed[j].job.eval_end = window.end;
        }
        std::vector<PirResponse> partial;
        {
            ScopedSpan s(rec, "pir.answer_shard", parent, rid);
            partial = engine.AnswerBatch(windowed);
        }
        shard_parts.push_back(SplitResponses(prep, partial));
    }
    {
        ScopedSpan s(rec, "pir.shard_merge", parent, rid);
        for (int p = 0; p < 4; ++p) {
            for (std::size_t b = 0; b < parts[p].size(); ++b) {
                std::vector<PirResponse> per_shard;
                for (const auto& shard : shard_parts) {
                    per_shard.push_back(shard[p][b]);
                }
                if (gpudpf::MergeShardShares(per_shard) != parts[p][b]) {
                    run.checker->Fail(
                        "MergeShardShares differs from the unsharded share");
                }
            }
        }
    }

    // Wire: each shard's ranged request and its two table partials.
    counts->request_bytes = 0;
    counts->partial_bytes = 0;
    for (std::size_t k = 0; k < kFleetShards; ++k) {
        gpudpf::net::LookupRequestFrame frame;
        frame.request_id = rid;
        frame.has_hot = tables.hot != nullptr;
        frame.has_range = true;
        const auto full_window = gpudpf::ShardRangeOf(
            service.full_pbr().bin_size(), kFleetShards, k);
        frame.full_row_begin = full_window.begin;
        frame.full_row_end = full_window.end;
        if (frame.has_hot) {
            const auto hot_window = gpudpf::ShardRangeOf(
                service.hot_pbr()->bin_size(), kFleetShards, k);
            frame.hot_row_begin = hot_window.begin;
            frame.hot_row_end = hot_window.end;
        }
        frame.full_keys0 = prep.wire_full_keys0;
        frame.full_keys1 = prep.wire_full_keys1;
        frame.hot_keys0 = prep.wire_hot_keys0;
        frame.hot_keys1 = prep.wire_hot_keys1;
        std::vector<std::uint8_t> bytes;
        {
            ScopedSpan s(rec, "net.encode", parent, rid);
            bytes = gpudpf::net::EncodeLookupRequest(frame);
        }
        counts->request_bytes += static_cast<double>(bytes.size());
        gpudpf::net::LookupRequestFrame decoded;
        bool decoded_ok = false;
        {
            ScopedSpan s(rec, "net.decode", parent, rid);
            decoded_ok = gpudpf::net::DecodeLookupRequest(bytes.data(),
                                                          bytes.size(), &decoded);
        }
        if (!decoded_ok || decoded.full_keys0 != frame.full_keys0 ||
            decoded.full_keys1 != frame.full_keys1 ||
            decoded.hot_keys0 != frame.hot_keys0 ||
            decoded.hot_keys1 != frame.hot_keys1) {
            run.checker->Fail("lookup request did not survive the wire");
        }
        for (int t = 0; t < (frame.has_hot ? 2 : 1); ++t) {
            gpudpf::net::ShardPartialFrame part;
            part.request_id = rid;
            part.shard_index = static_cast<std::uint32_t>(k);
            part.hot = t == 1;
            part.server0 = shard_parts[k][2 * t];
            part.server1 = shard_parts[k][2 * t + 1];
            std::vector<std::uint8_t> part_bytes;
            {
                ScopedSpan s(rec, "net.encode", parent, rid);
                part_bytes = gpudpf::net::EncodeShardPartial(part);
            }
            counts->partial_bytes += static_cast<double>(part_bytes.size());
            gpudpf::net::ShardPartialFrame back;
            bool back_ok = false;
            {
                ScopedSpan s(rec, "net.decode", parent, rid);
                back_ok = gpudpf::net::DecodeShardPartial(
                    part_bytes.data(), part_bytes.size(), &back);
            }
            if (!back_ok || back.server0 != part.server0 ||
                back.server1 != part.server1) {
                run.checker->Fail("shard partial did not survive the wire");
            }
        }
    }
}

// Submits one lookup through a front-end and waits for it, with spans for
// the submit call and the wait for the first streamed partial.
void ReplaySubmit(Run& run, const std::vector<std::uint64_t>& wanted,
                  PrivateEmbeddingService& service,
                  PrivateEmbeddingService::Client* client, SpanRecorder* rec) {
    const std::uint64_t rid = run.NewRequest();
    run.attempted.fetch_add(1);
    std::atomic<std::int64_t> first{0};
    ServingFrontEnd::SubmitOptions options;
    options.on_partial = [&first](const ServingFrontEnd::TablePartial&) {
        std::int64_t unset = 0;
        first.compare_exchange_strong(unset, NowNs());
    };
    const std::int64_t t0 = NowNs();
    auto handle =
        service.front_end().SubmitRequest({client, wanted}, std::move(options));
    const std::int64_t t1 = NowNs();
    if (!handle.ok()) {
        run.Failed(std::string("admission ") +
                   gpudpf::AdmissionStatusName(handle.admission()));
        return;
    }
    try {
        const LookupResult result = handle.Result();
        const std::int64_t t2 = NowNs();
        run.checker->Check(wanted, result);
        const std::uint64_t root = rec->Add("serve.lookup", t0, t2, 0, rid);
        rec->Add("core.submit", t0, t1, root, rid);
        rec->Add("core.wait_first_partial", t1, first.load(), root, rid);
    } catch (const std::exception& e) {
        run.Failed(e.what());
    }
}

struct Counters {
    std::uint64_t batches = 0;
    std::uint64_t completed = 0;
    std::uint64_t node_rows = 0;
    std::uint64_t node_requests = 0;
    std::uint64_t failovers = 0;
    std::uint64_t transport_errors = 0;
};

Counters ReadCounters(
    const std::vector<PrivateEmbeddingService*>& answering,
    const std::vector<std::unique_ptr<gpudpf::net::PirServerNode>>& nodes,
    const gpudpf::net::ShardedRouter* router) {
    Counters c;
    for (PrivateEmbeddingService* s : answering) {
        const auto fe = s->front_end().counters();
        c.batches += fe.batches;
        c.completed += fe.completed;
    }
    for (const auto& node : nodes) {
        const auto st = node->stats();
        c.node_rows += st.rows_scanned;
        c.node_requests += st.requests;
    }
    if (router != nullptr) {
        const auto st = router->stats();
        c.failovers = st.failovers;
        c.transport_errors = st.transport_errors;
    }
    return c;
}

double MedianOf(const std::vector<double>& v, const char* what) {
    if (v.empty()) {
        throw std::runtime_error(std::string("no spans for ") + what);
    }
    return Median(v);
}

// Replays the sampled lookups and the crypto and kernel micro-calls, then
// derives every per-layer metric from the spans (serving-pass spans
// included) and the counters.
std::vector<Metric> PerLayer(Run& run, SpanRecorder* rec,
                             const Counters& pass_before,
                             const Counters& pass_after) {
    World& world = *run.world;
    const bool sharded = run.workload->sharded;
    PrivateEmbeddingService& answering =
        sharded ? *world.node_services[0] : *world.service;
    auto client = world.service->MakeClient();
    gpudpf::PbrSession full_session(&world.service->full_pbr(), run.config.prf,
                                    run.args.seed,
                                    answering.server_sharding());
    std::unique_ptr<gpudpf::PbrSession> hot_session;
    if (world.service->hot_pbr() != nullptr) {
        hot_session = std::make_unique<gpudpf::PbrSession>(
            world.service->hot_pbr(), run.config.prf, run.args.seed + 1,
            answering.server_sharding());
    }
    gpudpf::Rng rng(run.args.seed);
    const ReplayTables tables = BuildReplayTables(answering, *run.inputs.emb);
    const gpudpf::AnswerEngine engine(answering.server_sharding());
    const std::size_t samples =
        std::min(run.workload->replay_lookups, run.inputs.wanted.size());
    ReplayCounts counts;
    for (std::size_t j = 0; j < samples; ++j) {
        ReplayLookup(run, run.inputs.wanted[j], answering, client.get(),
                     &full_session, hot_session.get(), &rng, tables, engine,
                     rec, &counts);
    }

    // Layers the workload's serving path never calls: the fleet submits
    // in-process on its first node's front-end; in-process workloads route
    // through two loopback nodes over their own service.
    Counters replay_net;
    if (sharded) {
        auto node_client = answering.MakeClient();
        for (std::size_t j = 0; j < samples; ++j) {
            ReplaySubmit(run, run.inputs.wanted[j], answering,
                         node_client.get(), rec);
        }
    } else {
        gpudpf::ServiceConfig planning_config = run.config;
        planning_config.planning_only = true;
        PrivateEmbeddingService planning(*run.inputs.emb, world.stats,
                                         planning_config);
        std::vector<std::unique_ptr<gpudpf::net::PirServerNode>> nodes;
        std::unique_ptr<gpudpf::net::ShardedRouter> router;
        StartFleet({world.service.get()}, &planning, &nodes, &router);
        auto router_client = planning.MakeClient();
        const Counters before = ReadCounters({}, nodes, router.get());
        for (std::size_t j = 0; j < samples; ++j) {
            const auto& wanted = run.inputs.wanted[j];
            const std::uint64_t rid = run.NewRequest();
            run.attempted.fetch_add(1);
            try {
                const std::int64_t t0 = NowNs();
                auto outcome = router->Lookup(router_client.get(), wanted);
                rec->Add("net.router_lookup", t0, NowNs(), 0, rid);
                run.checker->Check(wanted, outcome.result);
            } catch (const std::exception& e) {
                run.Failed(e.what());
            }
        }
        const Counters after = ReadCounters({}, nodes, router.get());
        replay_net.node_rows = after.node_rows - before.node_rows;
        replay_net.node_requests = after.node_requests - before.node_requests;
        replay_net.failovers = after.failovers - before.failovers;
        replay_net.transport_errors =
            after.transport_errors - before.transport_errors;
        router->Stop();
        for (auto& node : nodes) node->Stop();
    }

    // Crypto: the workload's PRF expanding a frontier of seeds.
    {
        const gpudpf::Prg prg(run.config.prf);
        std::vector<gpudpf::u128> seeds(kPrgSeeds), lefts(kPrgSeeds),
            rights(kPrgSeeds);
        for (auto& s : seeds) s = rng.Next128();
        for (int r = 0; r < kMicroReps; ++r) {
            ScopedSpan s(rec, "crypto.prg_expand", 0, run.NewRequest());
            prg.ExpandBatch(seeds.data(), seeds.size(), lefts.data(),
                            rights.data());
        }
    }
    // Kernels: one full-table bin of the workload's row width.
    {
        const std::size_t w = tables.full->words_per_entry();
        const std::uint64_t count = world.service->full_pbr().bin_size();
        std::vector<gpudpf::u128> rows(count * w), shares(count), resp(w);
        for (auto& x : rows) x = rng.Next128();
        for (auto& x : shares) x = rng.Next128();
        counts.accumulate_bytes =
            static_cast<double>(rows.size() * sizeof(gpudpf::u128));
        for (int r = 0; r < kMicroReps; ++r) {
            ScopedSpan s(rec, "kernels.accumulate", 0, run.NewRequest());
            gpudpf::AccumulateSegment(rows.data(), w, shares.data(), count,
                                      resp.data());
        }
    }

    const std::vector<Span> spans = rec->spans();
    const std::vector<double> self = SelfTimesNs(spans);
    auto median_ns = [&](const char* name) {
        return MedianOf(SelfTimePerRequestNs(spans, self, name), name);
    };
    const double answer_ns = median_ns("pir.answer");
    const Counters net =
        sharded ? Counters{0, 0, pass_after.node_rows - pass_before.node_rows,
                           pass_after.node_requests - pass_before.node_requests,
                           pass_after.failovers - pass_before.failovers,
                           pass_after.transport_errors -
                               pass_before.transport_errors}
                : replay_net;
    const double batches =
        static_cast<double>(pass_after.batches - pass_before.batches);
    const double completed =
        static_cast<double>(pass_after.completed - pass_before.completed);
    return {
        {"codesign.plan_us", median_ns("codesign.plan") / 1e3, "us"},
        {"batchpir.keygen_us", median_ns("batchpir.keygen") / 1e3, "us"},
        {"batchpir.parse_us", median_ns("batchpir.parse") / 1e3, "us"},
        {"core.prepare_us", median_ns("core.prepare") / 1e3, "us"},
        {"batchpir.keys_per_lookup", counts.keys, "count"},
        {"core.submit_us", median_ns("core.submit") / 1e3, "us"},
        {"core.wait_first_partial_ms",
         median_ns("core.wait_first_partial") / 1e6, "ms"},
        {"core.requests_per_batch", completed / std::max(1.0, batches),
         "count"},
        {"core.batches", batches, "count"},
        {"pir.answer_ms", answer_ns / 1e6, "ms"},
        {"pir.jobs_per_lookup", counts.jobs, "count"},
        {"pir.rows_per_lookup", counts.rows, "count"},
        {"pir.bytes_per_lookup", counts.rows * counts.row_bytes, "B"},
        {"pir.rows_per_s", counts.rows / (answer_ns / 1e9), "1/s"},
        {"pir.us_per_job", answer_ns / 1e3 / counts.jobs, "us"},
        {"crypto.prg_expand_ns",
         median_ns("crypto.prg_expand") / static_cast<double>(kPrgSeeds),
         "ns"},
        {"kernels.accumulate_gbps",
         counts.accumulate_bytes / median_ns("kernels.accumulate"), "GB/s"},
        {"core.reconstruct_us", median_ns("core.reconstruct") / 1e3, "us"},
        {"net.router_lookup_ms", median_ns("net.router_lookup") / 1e6, "ms"},
        {"net.encode_us", median_ns("net.encode") / 1e3, "us"},
        {"net.decode_us", median_ns("net.decode") / 1e3, "us"},
        {"net.request_bytes_per_lookup", counts.request_bytes, "B"},
        {"net.partial_bytes_per_lookup", counts.partial_bytes, "B"},
        {"pir.shard_merge_us", median_ns("pir.shard_merge") / 1e3, "us"},
        {"net.node_rows_per_request",
         static_cast<double>(net.node_rows) /
             std::max<double>(1.0, static_cast<double>(net.node_requests)),
         "count"},
        {"net.failovers", static_cast<double>(net.failovers), "count"},
        {"net.transport_errors", static_cast<double>(net.transport_errors),
         "count"},
    };
}

// ---------------------------------------------------------------------------
// Output.

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
               "\": {\"value\": " + value + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

void PrintFigures(const char* title, const std::vector<Metric>& untraced,
                  const std::vector<Metric>* traced) {
    std::fprintf(stderr, "%s\n", title);
    for (std::size_t i = 0; i < untraced.size(); ++i) {
        const Metric& m = untraced[i];
        if (traced == nullptr) {
            std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(),
                         m.value, m.unit.c_str());
            continue;
        }
        const double t = (*traced)[i].value;
        const double overhead =
            m.value != 0.0 ? 100.0 * (t - m.value) / m.value : 0.0;
        std::fprintf(stderr, "  %-28s %14.6g %14.6g %+8.2f%%  %s\n",
                     m.name.c_str(), m.value, t, overhead, m.unit.c_str());
    }
}

void PrintPassNotes(const char* pass, const PassFigures& fig) {
    double late_p95 = 0.0;
    const bool have_late = TailPercentile(fig.lateness_ms, 0.95, &late_p95);
    double whole_p95 = 0.0;
    const bool have_whole = TailPercentile(fig.latency_ms, 0.95, &whole_p95);
    std::fprintf(stderr,
                 "%s: open loop %zu lookups, whole-run latency p95 %s%.4f ms "
                 "max %.4f ms, generator lateness p50 %.4f ms p95 %s%.4f ms "
                 "max %.4f ms; closed loop %.0f lookups in %.3f s "
                 "(%.1f/s overall)\n",
                 pass, fig.latency_ms.size(), have_whole ? "" : "(n/a) ",
                 whole_p95,
                 *std::max_element(fig.latency_ms.begin(),
                                   fig.latency_ms.end()),
                 Median(fig.lateness_ms), have_late ? "" : "(n/a) ", late_p95,
                 *std::max_element(fig.lateness_ms.begin(),
                                   fig.lateness_ms.end()),
                 fig.closed_lookups, fig.closed_seconds,
                 fig.closed_lookups / fig.closed_seconds);
}

// ---------------------------------------------------------------------------
// Entry points.

int RunKnownFault(const Args& args) {
    const WorkloadInfo& workload = *FindWorkload("sharded-fleet");
    Run run;
    run.workload = &workload;
    run.args = args;
    run.inputs = MakeInputs(workload, args.seed);
    run.config = ConfigFor(workload, args.seed, /*q_hot=*/12);
    PrintFingerprint("sharded-fleet (known fault: q_hot 12)", run.config);
    run.world = BuildWorld(workload, run.inputs, run.config);
    const gpudpf::Pbr& hot = *run.world->service->hot_pbr();
    std::fprintf(stderr,
                 "known fault: hot table %llu rows in %llu bins of %llu; the "
                 "last bin holds %llu rows, so every shard window is wider "
                 "than it and SubmitRaw rejects the lookup\n",
                 static_cast<unsigned long long>(hot.num_entries()),
                 static_cast<unsigned long long>(hot.num_bins()),
                 static_cast<unsigned long long>(hot.bin_size()),
                 static_cast<unsigned long long>(
                     hot.BinEntries(hot.num_bins() - 1)));
    run.checker = std::make_unique<Checker>(run.inputs.emb.get(),
                                            *run.world->service);
    run.wanted = std::make_unique<WantedSource>(&run.inputs.wanted);
    auto client = run.world->service->MakeClient();
    for (std::size_t i = 0; i < kKnownFaultLookups; ++i) {
        const auto& wanted = run.wanted->Next();
        run.attempted.fetch_add(1);
        try {
            auto outcome = run.world->router->Lookup(client.get(), wanted);
            run.checker->Check(wanted, outcome.result);
        } catch (const std::exception& e) {
            run.Failed(e.what());
        }
    }
    std::fprintf(stderr, "known fault: %llu of %llu lookups failed%s%s\n",
                 static_cast<unsigned long long>(run.failed.load()),
                 static_cast<unsigned long long>(run.attempted.load()),
                 run.first_failure.empty() ? "" : "; first: ",
                 run.first_failure.c_str());
    PrintResult(run.checker->ok(), run.attempted.load(), run.failed.load(), {});
    return run.checker->ok() ? 0 : 1;
}

int RunWorkload(const Args& args) {
    Run run;
    run.workload = FindWorkload(args.workload);
    run.args = args;
    run.nproc = Nproc();
    run.inputs = MakeInputs(*run.workload, args.seed);
    run.config = ConfigFor(*run.workload, args.seed);
    PrintFingerprint(run.workload->name, run.config);

    std::vector<double> setups;
    for (int r = 0; r < kSetupRepeats; ++r) {
        run.world.reset();
        const std::int64_t t0 = NowNs();
        run.world = BuildWorld(*run.workload, run.inputs, run.config);
        setups.push_back(Seconds(NowNs() - t0));
    }
    const double setup_s = Median(setups);
    run.checker =
        std::make_unique<Checker>(run.inputs.emb.get(), *run.world->service);
    run.wanted = std::make_unique<WantedSource>(&run.inputs.wanted);

    PassFigures warmup;
    ClosedLoop(run, kWarmupSeconds, nullptr, &warmup);
    const PassFigures untraced = ServingPass(run, nullptr);
    PrintPassNotes("untraced", untraced);
    const std::vector<Metric> e2e = EndToEnd(run, untraced, setup_s);
    if (untraced.delivered == 0) {
        run.checker->Fail("no wanted embedding was delivered");
    }

    std::vector<Metric> result = e2e;
    if (args.trace) {
        std::vector<PrivateEmbeddingService*> answering;
        if (run.workload->sharded) {
            for (auto& s : run.world->node_services) answering.push_back(s.get());
        } else {
            answering.push_back(run.world->service.get());
        }
        SpanRecorder rec;
        const Counters before =
            ReadCounters(answering, run.world->nodes, run.world->router.get());
        const PassFigures traced = ServingPass(run, &rec);
        const Counters after =
            ReadCounters(answering, run.world->nodes, run.world->router.get());
        PrintPassNotes("traced", traced);
        const std::vector<Metric> e2e_traced = EndToEnd(run, traced, setup_s);
        result = PerLayer(run, &rec, before, after);
        PrintFigures("end-to-end (untraced, traced, tracing overhead):", e2e,
                     &e2e_traced);
        PrintFigures("per-layer (traced run, span self time):", result,
                     nullptr);
        if (!args.span_file.empty()) {
            const auto spans = rec.spans();
            if (!WriteChromeTrace(spans, args.span_file)) {
                std::fprintf(stderr, "could not write %s\n",
                             args.span_file.c_str());
                return 1;
            }
            std::fprintf(stderr, "spans: %zu written to %s\n", spans.size(),
                         args.span_file.c_str());
        }
    } else {
        PrintFigures("end-to-end:", e2e, nullptr);
    }
    // Stop serving before reporting, so every thread has ended.
    run.world.reset();

    const bool correct = run.checker->ok();
    if (!correct) {
        std::fprintf(stderr, "INCORRECT: %s\n",
                     run.checker->first_error().c_str());
    }
    if (run.failed.load() != 0) {
        std::fprintf(stderr, "failed lookups: %llu; first: %s\n",
                     static_cast<unsigned long long>(run.failed.load()),
                     run.first_failure.c_str());
    }
    PrintResult(correct, run.attempted.load(), run.failed.load(), result);
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    perfbench::Args args;
    std::string error;
    if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 2;
    }
    const auto variables = perfbench::GpudpfVariables();
    if (!variables.empty()) {
        for (const auto& v : variables) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                         v.c_str());
        }
        return 2;
    }
    try {
        return args.known_fault ? perfbench::RunKnownFault(args)
                                : perfbench::RunWorkload(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
