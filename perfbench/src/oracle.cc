#include "oracle.h"

#include <cmath>

namespace perfbench {

void ShadowTable::SetField(uint64_t key, size_t field, std::string value) {
  std::vector<std::string>& row = rows_[key];
  if (row.size() <= field) row.resize(field + 1);
  row[field] = std::move(value);
}

int ShadowTable::Check(uint64_t key, const std::vector<std::string>& observed) const {
  auto it = rows_.find(key);
  return it == rows_.end() || it->second != observed ? 1 : 0;
}

std::vector<std::string>* ShadowTable::Mutable(uint64_t key) {
  auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

int CheckTpcc(const TpccEndState& s) {
  int violations = 0;
  std::map<int, double> district_sum;
  for (const auto& [wd, ytd] : s.d_ytd) district_sum[wd.first] += ytd;
  for (const auto& [w, ytd] : s.w_ytd) {
    // Payment amounts have two decimals; allow for float summation order.
    auto districts = district_sum.find(w);
    if (districts == district_sum.end() ||
        std::fabs(ytd - districts->second) > 0.005) {
      ++violations;
    }
    auto paid = s.paid.find(w);
    if (std::fabs(ytd - (paid == s.paid.end() ? 0.0 : paid->second)) > 0.005) {
      ++violations;
    }
  }
  for (const auto& [w, sum] : district_sum) {
    if (s.w_ytd.count(w) == 0) ++violations;
  }
  for (const auto& [wd, next] : s.d_next_o_id) {
    auto it = s.max_o_id.find(wd);
    const int64_t max_o = it == s.max_o_id.end() ? 0 : it->second;
    if (next - 1 != max_o) ++violations;
  }
  return violations;
}

uint64_t CheckCounters(const std::vector<int64_t>& counters, uint64_t committed) {
  int64_t sum = 0;
  for (int64_t c : counters) sum += c;
  const int64_t want = 2 * static_cast<int64_t>(committed);
  return static_cast<uint64_t>(sum > want ? sum - want : want - sum);
}

}  // namespace perfbench
