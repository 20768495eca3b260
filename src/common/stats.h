// Small statistics helpers shared by benches and tests.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace gpudpf {

// Streaming summary of a scalar sample set.
class RunningStat {
  public:
    void Add(double x);

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
    double min() const { return min_; }
    double max() const { return max_; }
    // Population variance / stddev.
    double variance() const;
    double stddev() const;

  private:
    std::size_t n_ = 0;
    double sum_ = 0.0;
    double sum_sq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

// Percentile of an (unsorted) sample vector; p in [0,100].
double Percentile(std::vector<double> samples, double p);

// Formats a byte count with binary units ("1.5 MiB").
std::string FormatBytes(double bytes);

// Formats a count with SI units ("3.6 M").
std::string FormatCount(double count);

}  // namespace gpudpf
