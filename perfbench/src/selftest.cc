// Self-test of the benchmark's own parts: the generators are pure
// functions of the seed, and every oracle reports a deliberately wrong
// expectation. Run: perfbench_selftest (exit 0 = all pass), or ctest.
#include <cstdio>
#include <string>
#include <vector>

#include "gen.h"
#include "oracle.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s  %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

std::vector<std::string> YcsbTexts(uint64_t seed) {
  YcsbConfig cfg;
  cfg.rows = 2000;
  const YcsbStream s = MakeYcsb(cfg, seed, 5000);
  std::vector<std::string> out;
  for (const YcsbOp& op : s.ops) out.push_back(op.sql);
  for (const auto& row : s.initial) out.insert(out.end(), row.begin(), row.end());
  return out;
}

std::vector<std::string> TpccTexts(uint64_t seed) {
  const TpccStream s = MakeTpcc(TpccConfig{}, seed, 2000);
  std::vector<std::string> out;
  for (const TpccTxn& t : s.txns) out.push_back(Describe(t));
  for (int q : s.initial_stock) out.push_back(std::to_string(q));
  return out;
}

std::vector<std::string> WakeTexts(uint64_t seed) {
  const WakeStream s = MakeWake(WakeConfig{}, seed, 800);
  std::vector<std::string> out;
  for (const auto& burst : s.bursts) {
    for (const Wake& w : burst) out.push_back(Describe(w));
  }
  for (const auto& rows : s.initial) {
    for (const WakeWrite& w : rows) out.push_back(w.value);
  }
  return out;
}

std::vector<std::string> ContendTexts(uint64_t seed) {
  std::vector<std::string> out;
  for (const auto& thread : MakeContend(ContendConfig{}, seed, 1000)) {
    for (const auto& [a, b] : thread) out.push_back(std::to_string(a) + "+" + std::to_string(b));
  }
  return out;
}

template <typename Gen>
void CheckStream(const char* name, Gen gen) {
  const uint64_t a = Fingerprint(gen(1)), again = Fingerprint(gen(1)), b = Fingerprint(gen(2));
  Expect(a == again, (std::string(name) + ": same seed gives an identical stream").c_str());
  Expect(a != b, (std::string(name) + ": another seed gives another stream").c_str());
}

void CheckGenerators() {
  CheckStream("ycsb-b", YcsbTexts);
  CheckStream("tpcc", TpccTexts);
  CheckStream("tenant-wake", WakeTexts);
  CheckStream("kv-contend", ContendTexts);

  YcsbConfig cfg;
  cfg.rows = 2000;
  const YcsbStream s = MakeYcsb(cfg, 7, 20000);
  size_t hottest = 0, updates = 0;
  for (const YcsbOp& op : s.ops) {
    hottest += op.key == s.hot.front();
    updates += op.update;
  }
  Expect(hottest > s.ops.size() / 50, "ycsb-b: the hottest key takes a zipf share of ops");
  Expect(updates > s.ops.size() * 3 / 100 && updates < s.ops.size() * 7 / 100,
         "ycsb-b: about 5% of ops are updates");

  const WakeStream w = MakeWake(WakeConfig{}, 3, 80);
  bool distinct = true;
  for (const auto& burst : w.bursts) {
    for (size_t i = 0; i < burst.size(); ++i) {
      for (size_t j = i + 1; j < burst.size(); ++j) distinct &= burst[i].tenant != burst[j].tenant;
    }
  }
  Expect(distinct && w.bursts.size() == 10, "tenant-wake: bursts of 8 distinct tenants");
}

void CheckOracles() {
  ShadowTable shadow;
  shadow.Set(1, {"a", "b"});
  Expect(shadow.Check(1, {"a", "b"}) == 0, "shadow: the last written value passes");
  shadow.SetField(1, 1, "c");
  Expect(shadow.Check(1, {"a", "b"}) == 1, "shadow: a stale value is reported");
  Expect(shadow.Check(1, {}) == 1, "shadow: a missing row is reported");
  Expect(shadow.Check(2, {"a"}) == 1, "shadow: an unknown key is reported");
  (*shadow.Mutable(1))[0] = "corrupt";
  Expect(shadow.Check(1, {"a", "c"}) == 1, "shadow: a corrupted expectation is reported");

  TpccEndState good;
  good.w_ytd[1] = 30.25;
  good.paid[1] = 30.25;
  good.d_ytd[{1, 1}] = 10.00;
  good.d_ytd[{1, 2}] = 20.25;
  good.d_next_o_id[{1, 1}] = 4;
  good.max_o_id[{1, 1}] = 3;
  good.d_next_o_id[{1, 2}] = 1;  // no orders yet
  Expect(CheckTpcc(good) == 0, "tpcc: a consistent end state passes");
  TpccEndState bad = good;
  bad.d_next_o_id[{1, 1}] = 5;
  Expect(CheckTpcc(bad) == 1, "tpcc: D_NEXT_O_ID off by one is reported");
  bad = good;
  bad.d_ytd[{1, 2}] = 20.26;
  Expect(CheckTpcc(bad) == 1, "tpcc: W_YTD != sum of D_YTD is reported");
  bad = good;
  bad.paid[1] = 31.25;
  Expect(CheckTpcc(bad) == 1, "tpcc: W_YTD != committed payments is reported");
  bad = good;
  bad.max_o_id[{1, 2}] = 1;
  Expect(CheckTpcc(bad) == 1, "tpcc: an order beyond D_NEXT_O_ID is reported");

  Expect(CheckCounters({3, 5, 2}, 5) == 0, "kv-contend: sum = 2 x committed passes");
  Expect(CheckCounters({3, 5, 1}, 5) == 1, "kv-contend: one lost increment is reported");
  Expect(CheckCounters({3, 5, 2}, 6) == 2, "kv-contend: an uncounted commit is reported");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::CheckGenerators();
  perfbench::CheckOracles();
  std::printf("%s\n", perfbench::failures == 0 ? "selftest: all passed" : "selftest: FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
