#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Samples::QuantileMs(double q) const {
  if (ns_.empty()) return 0;
  if (!sorted_) {
    std::sort(ns_.begin(), ns_.end());
    sorted_ = true;
  }
  const auto n = ns_.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return static_cast<double>(ns_[rank - 1]) / 1e6;
}

bool Samples::HasTail(double q, size_t tail) const {
  const auto n = static_cast<double>(ns_.size());
  return n - std::ceil(q * n) >= static_cast<double>(tail);
}

double Samples::SumMs() const {
  double sum = 0;
  for (int64_t v : ns_) sum += static_cast<double>(v);
  return sum / 1e6;
}

double Samples::MeanMs() const {
  return ns_.empty() ? 0 : SumMs() / static_cast<double>(ns_.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench
