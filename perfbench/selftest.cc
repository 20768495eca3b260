// Tests of the benchmark's own arithmetic: the percentile tail rule, span
// self time, and open-loop latency accounting. Exits nonzero on the first
// failed check.
//
//   python3 perfbench/run.py --selftest
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++g_failures;                                                  \
        }                                                                  \
    } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(std::size_t n) {
    std::vector<double> v(n);
    // Descending, so the percentile code has to sort.
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    return v;
}

void TestPercentileNeedsTenBeyond() {
    double p = -1.0;
    // 199 samples: rank ceil(0.95 * 199) = 190 leaves 9 beyond it.
    CHECK(!perfbench::TailPercentile(Ramp(199), 0.95, &p));
    CHECK(Near(p, -1.0));
    // 200 samples: rank 190 leaves exactly 10 beyond it.
    CHECK(perfbench::TailPercentile(Ramp(200), 0.95, &p));
    CHECK(Near(p, 190.0));
    CHECK(perfbench::MinSamplesForPercentile(0.95) == 200);
    CHECK(perfbench::MinSamplesForPercentile(0.99) == 1000);
    // The median of 20 samples has 10 beyond it; of 19, only 9.
    CHECK(perfbench::TailPercentile(Ramp(20), 0.5, &p));
    CHECK(Near(p, 10.0));
    CHECK(!perfbench::TailPercentile(Ramp(19), 0.5, &p));
    CHECK(!perfbench::TailPercentile({}, 0.5, &p));
    CHECK(Near(perfbench::Median({3.0, 1.0, 2.0}), 2.0));
    CHECK(Near(perfbench::Median({4.0, 1.0, 2.0, 3.0}), 2.5));
}

void TestBestWindowIgnoresABurst() {
    // Five windows of 200 lookups at 1 ms, two of them hit by a burst of
    // 30 ms stalls: the best window still reads 1 ms at p95, while the
    // whole-run p95 is the burst.
    std::vector<double> latency(1000, 1.0);
    for (std::size_t i = 400; i < 800; ++i) latency[i] = 30.0;
    latency[10] = 0.5;  // one fast lookup does not make a window's p95
    double p95 = 0.0;
    CHECK(perfbench::BestWindowPercentile(latency, 200, 0.95, &p95));
    CHECK(Near(p95, 1.0));
    CHECK(perfbench::TailPercentile(latency, 0.95, &p95));
    CHECK(Near(p95, 30.0));
    // A program tail that recurs in every window is kept.
    for (std::size_t i = 0; i < latency.size(); i += 10) latency[i] = 9.0;
    CHECK(perfbench::BestWindowPercentile(latency, 200, 0.95, &p95));
    CHECK(Near(p95, 9.0));
    // A trailing part joins the last window; too few samples reports none.
    latency.resize(1099, 1.0);
    CHECK(perfbench::BestWindowPercentile(latency, 200, 0.95, &p95));
    CHECK(!perfbench::BestWindowPercentile(std::vector<double>(199, 1.0),
                                           200, 0.95, &p95));

    // Completions at 1 per ms over 4 s, except a stalled second with none
    // and a half-speed one: the best second reads 1000/s, the whole phase
    // 625/s, and completions outside the phase do not count.
    std::vector<std::int64_t> done;
    for (std::int64_t ms = 0; ms < 4000; ++ms) {
        if (ms >= 1000 && ms < 2000) continue;
        if (ms >= 2000 && ms < 3000 && ms % 2 == 1) continue;
        done.push_back(ms * 1'000'000);
    }
    done.push_back(5'000'000'000);
    CHECK(Near(perfbench::BestWindowRate(done, 0, 4'000'000'000, 4), 1000.0));
    CHECK(Near(perfbench::BestWindowRate(done, 0, 4'000'000'000, 1), 625.0));
}

perfbench::Span MakeSpan(std::uint64_t id, std::uint64_t parent,
                         std::int64_t start, std::int64_t end) {
    perfbench::Span s;
    s.id = id;
    s.parent = parent;
    s.request = 7;
    s.name = id == 1 ? "root" : "child";
    s.start_ns = start;
    s.end_ns = end;
    return s;
}

void TestSelfTimeNestedAndOverlapping() {
    // root [0,100) with children a [10,40) and b [30,60) overlapping each
    // other, c [90,120) running past the root's end, and a grandchild
    // d [15,20) inside a.
    const std::vector<perfbench::Span> spans = {
        MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 40),
        MakeSpan(3, 1, 30, 60), MakeSpan(4, 1, 90, 120),
        MakeSpan(5, 2, 15, 20)};
    const std::vector<double> self = perfbench::SelfTimesNs(spans);
    // Covered by children: [10,60) once, plus [90,100) clipped: 60.
    CHECK(Near(self[0], 40.0));
    CHECK(Near(self[1], 25.0));  // a minus its grandchild
    CHECK(Near(self[2], 30.0));
    CHECK(Near(self[3], 30.0));  // c's own self time is its whole duration
    CHECK(Near(self[4], 5.0));
    // Per-request sums: the three spans named "child" of request 7 minus
    // the grandchild's cover inside a: 25 + 30 + 30 + 5.
    const std::vector<double> per_request =
        perfbench::SelfTimePerRequestNs(spans, self, "child");
    CHECK(per_request.size() == 1);
    CHECK(!per_request.empty() && Near(per_request[0], 90.0));
    // A child identical to its parent leaves no self time.
    const std::vector<perfbench::Span> same = {MakeSpan(1, 0, 0, 50),
                                               MakeSpan(2, 1, 0, 50)};
    CHECK(Near(perfbench::SelfTimesNs(same)[0], 0.0));
}

void TestOpenLoopChargesStall() {
    // 1 lookup per ms, each served in 0.1 ms, but the system stalls from
    // 5 ms to 15 ms, and the generator, blocked with it, sends lookups 6..14
    // only when the stall ends (lookup 15 is due just then).
    perfbench::OpenLoopSchedule schedule;
    schedule.start_ns = 1'000'000'000;
    schedule.rate_per_s = 1000.0;
    const std::int64_t stall_end = schedule.start_ns + 15'000'000;
    std::vector<perfbench::OpenLoopRecord> records(20);
    std::int64_t server_free = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        auto& r = records[i];
        r.due_ns = schedule.DueNs(i);
        r.sent_ns = (i >= 6 && i < 15) ? stall_end : r.due_ns;
        const std::int64_t begin = std::max(r.sent_ns, server_free);
        r.done_ns = begin + (i == 5 ? 10'000'000 : 100'000);
        server_free = r.done_ns;
    }
    // The schedule never drifts: lookup 1000 is due exactly 1 s in.
    CHECK(schedule.DueNs(1000) == schedule.start_ns + 1'000'000'000);
    int charged = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const double latency = perfbench::LatencyMs(records[i]);
        const double from_send =
            static_cast<double>(records[i].done_ns - records[i].sent_ns) / 1e6;
        if (latency > 0.5) ++charged;
        if (i >= 6 && i < 15) {
            // Timed from its send, the lookup would look fast.
            CHECK(from_send < 1.0);
            CHECK(Near(perfbench::LatenessMs(records[i]),
                       static_cast<double>(stall_end - records[i].due_ns) /
                           1e6));
        }
    }
    // The stalled lookup and every lookup queued behind it are charged.
    CHECK(charged == 11);
    // Lookup 6 waits out the stall: sent at 15 ms, done at 15.1 ms, due at
    // 6 ms.
    CHECK(Near(perfbench::LatencyMs(records[6]), 9.1));
    CHECK(Near(perfbench::LatenessMs(records[3]), 0.0));
}

}  // namespace

int main() {
    TestPercentileNeedsTenBeyond();
    TestBestWindowIgnoresABurst();
    TestSelfTimeNestedAndOverlapping();
    TestOpenLoopChargesStall();
    if (g_failures != 0) {
        std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n",
                     g_failures);
        return 1;
    }
    std::printf("perfbench selftest: all checks passed\n");
    return 0;
}
