// Input generators owned by the benchmark. Every stream here is a pure
// function of (workload parameters, seed): it uses its own PRNG and zipf
// sampler rather than the program's, so a change to the program can never
// change the benchmark's inputs.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Independent sub-seed per named stream (FNV-1a of the name, splitmix64).
uint64_t SubSeed(uint64_t seed, std::string_view stream);

/// splitmix64: small, fast and fully specified, so streams never drift.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform double in [0, 1).
  double Double() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Lower-case ASCII string of `len` letters.
  std::string Letters(size_t len);

 private:
  uint64_t state_;
};

/// Zipfian ranks in [0, n) with skew theta (Gray et al., as in YCSB's
/// ZipfianGenerator). Rank 0 is the most popular.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t Next(Rng& rng) const;

 private:
  uint64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

/// FNV-1a over a sequence of strings: the self-test's stream fingerprint.
uint64_t Fingerprint(const std::vector<std::string>& items);

// --- ycsb-b -----------------------------------------------------------------

struct YcsbConfig {
  uint64_t rows = 50000;
  int fields = 4;
  size_t field_bytes = 64;
  int read_percent = 95;
  double theta = 0.99;
  int hot_keys = 10;  ///< the hot set whose reads are attributed separately
};

struct YcsbOp {
  bool update = false;
  uint64_t key = 0;
  int field = 0;       ///< updated field (updates only)
  std::string value;   ///< new field value (updates only)
  bool hot = false;    ///< key is among the generator's `hot_keys` hottest
  std::string sql;
};

struct YcsbStream {
  std::vector<std::vector<std::string>> initial;  ///< [key][field] loaded values
  std::vector<uint64_t> hot;                      ///< hottest keys, hottest first
  std::vector<YcsbOp> ops;
};

YcsbStream MakeYcsb(const YcsbConfig& cfg, uint64_t seed, uint64_t num_ops);
std::string YcsbInsertSql(const YcsbStream& s, uint64_t first, uint64_t count);

// --- tpcc -------------------------------------------------------------------

struct TpccConfig {
  int warehouses = 2;
  int districts = 10;
  int customers = 30;  ///< per district
  int items = 1000;
};

enum class TpccType { kNewOrder, kPayment, kOrderStatus, kDelivery, kStockLevel };
const char* TpccTypeName(TpccType t);
inline bool TpccReadOnly(TpccType t) {
  return t == TpccType::kOrderStatus || t == TpccType::kStockLevel;
}

/// One transaction's inputs. The SQL text of interactive steps depends on
/// earlier results (the order id read from the district), so the runner
/// builds it; the inputs themselves are fixed by the seed.
struct TpccTxn {
  TpccType type = TpccType::kNewOrder;
  int w = 1, d = 1, c = 1;
  bool by_last_name = false;
  int64_t amount_cents = 0;
  std::vector<int> items;
  std::vector<int> qty;
};

struct TpccStream {
  std::vector<int> initial_stock;  ///< [(w-1) * items + (i-1)] quantity
  std::vector<int> item_price;     ///< [i-1] whole units
  std::vector<TpccTxn> txns;
};

std::string TpccLastName(int num);
TpccStream MakeTpcc(const TpccConfig& cfg, uint64_t seed, uint64_t num_txns);
std::string Describe(const TpccTxn& t);

// --- tenant-wake ------------------------------------------------------------

struct WakeConfig {
  int tenants = 1000;
  int burst = 8;          ///< tenants woken together (2x the warm pool)
  int keys = 32;          ///< rows per tenant table
  int writes = 5;         ///< point writes per wake
  int reads = 5;          ///< point reads per wake
  size_t value_bytes = 32;
};

struct WakeWrite {
  int key = 0;
  std::string value;
};

struct Wake {
  int tenant = 0;
  std::vector<WakeWrite> writes;
  std::vector<int> reads;  ///< keys the tenant wrote in an earlier wake
};

struct WakeStream {
  /// Rows each tenant writes at setup, before its first suspend.
  std::vector<std::vector<WakeWrite>> initial;
  /// Bursts of `burst` distinct tenants.
  std::vector<std::vector<Wake>> bursts;
};

WakeStream MakeWake(const WakeConfig& cfg, uint64_t seed, uint64_t num_wakes);
std::string Describe(const Wake& w);

// --- kv-contend -------------------------------------------------------------

struct ContendConfig {
  int threads = 4;
  uint64_t counters = 1000;
  double theta = 0.99;
};

/// Per thread, the pairs of distinct counters each txn increments.
std::vector<std::vector<std::pair<uint64_t, uint64_t>>> MakeContend(
    const ContendConfig& cfg, uint64_t seed, uint64_t txns_per_thread);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
