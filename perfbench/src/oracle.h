// Output oracles. Each returns a violation count instead of aborting, so a
// run reports how many outputs were wrong (they count in failed_ratio and
// make the run's `correct` false). selftest.cc feeds each a deliberately
// wrong expectation to prove it can fail.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// ycsb-b and tenant-wake: the last value written to each row.
class ShadowTable {
 public:
  void Set(uint64_t key, std::vector<std::string> row) { rows_[key] = std::move(row); }
  void SetField(uint64_t key, size_t field, std::string value);
  /// 1 if `observed` differs from the last write of `key` (or the row is
  /// unknown), else 0.
  int Check(uint64_t key, const std::vector<std::string>& observed) const;
  std::vector<std::string>* Mutable(uint64_t key);

 private:
  std::map<uint64_t, std::vector<std::string>> rows_;
};

/// tpcc end state, as read back from the database.
struct TpccEndState {
  std::map<int, double> w_ytd;                         ///< w -> W_YTD
  std::map<std::pair<int, int>, double> d_ytd;         ///< (w,d) -> D_YTD
  std::map<std::pair<int, int>, int64_t> d_next_o_id;  ///< (w,d) -> D_NEXT_O_ID
  std::map<std::pair<int, int>, int64_t> max_o_id;     ///< (w,d) -> max O_ID (0 if none)
  /// w -> sum of the Payment amounts the client saw commit.
  std::map<int, double> paid;
};

/// W_YTD = sum of its districts' D_YTD = the committed Payments, and
/// D_NEXT_O_ID - 1 = max O_ID per district. Returns the number of
/// warehouses plus districts that break a rule.
int CheckTpcc(const TpccEndState& s);

/// kv-contend: every committed txn added 1 to two counters, so the sum of
/// all counters must be 2 x committed. Returns |sum - 2 x committed|, the
/// number of lost (or phantom) increments.
uint64_t CheckCounters(const std::vector<int64_t>& counters, uint64_t committed);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
