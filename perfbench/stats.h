// The benchmark's own arithmetic: percentiles with a tail-sample rule and
// open-loop latency accounting. Kept free of the library so the self-test
// (selftest.cc) can check it without building a serving world.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Median of `samples` (mean of the two middle values for an even count).
// `samples` must not be empty.
double Median(std::vector<double> samples);

// Nearest-rank percentile: the value at rank ceil(q * n) of the sorted
// samples, q in (0, 1]. Reported only when at least `min_beyond` samples
// lie strictly beyond that rank, so a "p95" of 40 samples (2 beyond it) is
// never passed off as a tail: returns false and leaves *out untouched.
bool TailPercentile(std::vector<double> samples, double q, double* out,
                    std::size_t min_beyond = 10);

// Smallest sample count for which TailPercentile(q, min_beyond) reports.
std::size_t MinSamplesForPercentile(double q, std::size_t min_beyond = 10);

// Interference from outside the process (other tenants of the host,
// hypervisor steal) comes in episodes of seconds that stall threads for up
// to tens of milliseconds: on a 4-vCPU reference host an idle thread
// sleeping to a 667 us schedule saw its p99 lateness range 0.15-1.9 ms
// between 7-second runs. No run-length fixes that, since one episode can
// cover a whole window. The benchmark therefore splits a phase into
// windows and reports the least-disturbed one: the program's own tails
// (batching, queueing, pool dispatch) recur in every window, the episodes
// do not.

// Lowest, over consecutive windows of `window` samples (in schedule
// order), of each window's TailPercentile(q). A trailing part shorter than
// `window` joins the last full window. False when a window cannot report q
// (fewer than `window` samples in all, or too few beyond the rank).
bool BestWindowPercentile(const std::vector<double>& in_order,
                          std::size_t window, double q, double* out);

// Highest, over `windows` equal slices of [start_ns, end_ns), of the
// completions per second inside each slice; completions outside the
// interval are not counted.
double BestWindowRate(const std::vector<std::int64_t>& completion_ns,
                      std::int64_t start_ns, std::int64_t end_ns, int windows);

// Open-loop schedule: lookup i is due at start + i / rate, whatever
// happened to the lookups before it.
struct OpenLoopSchedule {
    std::int64_t start_ns = 0;
    double rate_per_s = 1.0;

    std::int64_t DueNs(std::size_t i) const;
};

// One open-loop lookup's three instants (ns on one steady clock).
struct OpenLoopRecord {
    std::int64_t due_ns = 0;   // when the schedule wanted it sent
    std::int64_t sent_ns = 0;  // when the generator actually sent it
    std::int64_t done_ns = 0;  // when its reconstructed result was ready
};

// Latency charged to a lookup: from its due time, not its send time, so a
// stall that holds the generator back is charged to every lookup queued
// behind it (no coordinated omission).
double LatencyMs(const OpenLoopRecord& record);

// How late the generator sent the lookup (0 when on time).
double LatenessMs(const OpenLoopRecord& record);

}  // namespace perfbench
