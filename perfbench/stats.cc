#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

// 1-based nearest rank of percentile q over n samples.
std::size_t NearestRank(double q, std::size_t n) {
    const double exact = q * static_cast<double>(n);
    // Guard the ceil against representation error (0.95 * 200 = 190.00000x).
    std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::max<std::size_t>(1, std::min(rank, n));
}

}  // namespace

bool TailPercentile(std::vector<double> samples, double q, double* out,
                    std::size_t min_beyond) {
    const std::size_t n = samples.size();
    if (n == 0) return false;
    const std::size_t rank = NearestRank(q, n);
    if (n - rank < min_beyond) return false;
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    *out = samples[rank - 1];
    return true;
}

std::size_t MinSamplesForPercentile(double q, std::size_t min_beyond) {
    std::size_t n = 1;
    while (n - NearestRank(q, n) < min_beyond) ++n;
    return n;
}

bool BestWindowPercentile(const std::vector<double>& in_order,
                          std::size_t window, double q, double* out) {
    const std::size_t count = window == 0 ? 0 : in_order.size() / window;
    if (count == 0) return false;
    std::vector<double> per_window;
    for (std::size_t w = 0; w < count; ++w) {
        const auto begin = in_order.begin() + static_cast<std::ptrdiff_t>(w * window);
        const auto end = w + 1 == count
                             ? in_order.end()
                             : begin + static_cast<std::ptrdiff_t>(window);
        double value = 0.0;
        if (!TailPercentile(std::vector<double>(begin, end), q, &value)) {
            return false;
        }
        per_window.push_back(value);
    }
    *out = *std::min_element(per_window.begin(), per_window.end());
    return true;
}

double BestWindowRate(const std::vector<std::int64_t>& completion_ns,
                      std::int64_t start_ns, std::int64_t end_ns, int windows) {
    const double width =
        static_cast<double>(end_ns - start_ns) / static_cast<double>(windows);
    std::vector<double> counts(static_cast<std::size_t>(windows), 0.0);
    for (const std::int64_t t : completion_ns) {
        if (t < start_ns || t >= end_ns) continue;
        const auto w = static_cast<std::size_t>(
            static_cast<double>(t - start_ns) / width);
        counts[std::min(w, counts.size() - 1)] += 1.0;
    }
    return *std::max_element(counts.begin(), counts.end()) / (width / 1e9);
}

std::int64_t OpenLoopSchedule::DueNs(std::size_t i) const {
    return start_ns +
           static_cast<std::int64_t>(std::llround(
               static_cast<double>(i) * 1e9 / rate_per_s));
}

double LatencyMs(const OpenLoopRecord& record) {
    return static_cast<double>(record.done_ns - record.due_ns) / 1e6;
}

double LatenessMs(const OpenLoopRecord& record) {
    return static_cast<double>(
               std::max<std::int64_t>(0, record.sent_ns - record.due_ns)) /
           1e6;
}

}  // namespace perfbench
