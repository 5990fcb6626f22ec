// Latency samples and the percentile rule the benchmark reports by.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Durations in nanoseconds. Percentiles are nearest-rank over all samples.
class Samples {
 public:
  void Add(int64_t ns) {
    ns_.push_back(ns);
    sorted_ = false;
  }
  void Merge(const Samples& other) {
    ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
    sorted_ = false;
  }
  size_t count() const { return ns_.size(); }
  /// The q-quantile (0 < q <= 1) in milliseconds; 0 with no samples.
  double QuantileMs(double q) const;
  /// True when at least `tail` samples lie above the q-quantile, the
  /// benchmark's rule for reporting that percentile.
  bool HasTail(double q, size_t tail = 10) const;
  double MeanMs() const;
  double SumMs() const;

 private:
  mutable std::vector<int64_t> ns_;
  mutable bool sorted_ = false;
};

/// Median of a small vector (set-up repetitions).
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
