#include "gen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

uint64_t SubSeed(uint64_t seed, std::string_view stream) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : stream) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  Rng mix(seed ^ h);
  return mix.Next();
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string Rng::Letters(size_t len) {
  std::string out(len, 'a');
  for (char& c : out) c = static_cast<char>('a' + Uniform(26));
  return out;
}

Zipf::Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
  double zeta2 = 0;
  zetan_ = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    const double term = 1.0 / std::pow(static_cast<double>(i), theta);
    zetan_ += term;
    if (i <= 2) zeta2 += term;
  }
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
}

uint64_t Zipf::Next(Rng& rng) const {
  const double u = rng.Double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto rank = static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(rank, n_ - 1);
}

uint64_t Fingerprint(const std::vector<std::string>& items) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& s : items) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

/// The op mix as a shuffled deck of 100 cards per 100 ops: every 100 ops
/// hold exactly the mix's shares (the TPC-C spec's deck method), so runs on
/// different seeds differ in order, not in how much of each op they do.
class MixDeck {
 public:
  explicit MixDeck(std::vector<int> shares) : shares_(std::move(shares)) {}
  int Next(Rng& rng) {
    if (pos_ == deck_.size()) {
      deck_.clear();
      for (size_t kind = 0; kind < shares_.size(); ++kind) {
        deck_.insert(deck_.end(), static_cast<size_t>(shares_[kind]), static_cast<int>(kind));
      }
      for (size_t i = deck_.size() - 1; i > 0; --i) std::swap(deck_[i], deck_[rng.Uniform(i + 1)]);
      pos_ = 0;
    }
    return deck_[pos_++];
  }

 private:
  std::vector<int> shares_;
  std::vector<int> deck_;
  size_t pos_ = 0;
};

}  // namespace

// --- ycsb-b -----------------------------------------------------------------

YcsbStream MakeYcsb(const YcsbConfig& cfg, uint64_t seed, uint64_t num_ops) {
  YcsbStream s;
  Rng load(SubSeed(seed, "ycsb/load"));
  s.initial.resize(cfg.rows);
  for (auto& row : s.initial) {
    row.resize(static_cast<size_t>(cfg.fields));
    for (auto& field : row) field = load.Letters(cfg.field_bytes);
  }
  // Popularity rank -> key through a seeded permutation, so hot keys are
  // scattered over the table instead of sharing a few blocks.
  std::vector<uint64_t> perm(cfg.rows);
  std::iota(perm.begin(), perm.end(), 0);
  Rng shuffle(SubSeed(seed, "ycsb/perm"));
  for (uint64_t i = cfg.rows - 1; i > 0; --i) {
    std::swap(perm[i], perm[shuffle.Uniform(i + 1)]);
  }
  s.hot.assign(perm.begin(), perm.begin() + cfg.hot_keys);

  const Zipf zipf(cfg.rows, cfg.theta);
  Rng rng(SubSeed(seed, "ycsb/ops"));
  MixDeck mix({cfg.read_percent, 100 - cfg.read_percent});
  s.ops.reserve(num_ops);
  for (uint64_t i = 0; i < num_ops; ++i) {
    YcsbOp op;
    const uint64_t rank = zipf.Next(rng);
    op.key = perm[rank];
    op.hot = rank < static_cast<uint64_t>(cfg.hot_keys);
    op.update = mix.Next(rng) == 1;
    if (op.update) {
      op.field = static_cast<int>(rng.Uniform(static_cast<uint64_t>(cfg.fields)));
      op.value = rng.Letters(cfg.field_bytes);
      op.sql = "UPDATE usertable SET field" + std::to_string(op.field) + " = '" +
               op.value + "' WHERE ycsb_key = " + std::to_string(op.key);
    } else {
      op.sql = "SELECT field0, field1, field2, field3 FROM usertable WHERE ycsb_key = " +
               std::to_string(op.key);
    }
    s.ops.push_back(std::move(op));
  }
  return s;
}

std::string YcsbInsertSql(const YcsbStream& s, uint64_t first, uint64_t count) {
  std::string sql = "INSERT INTO usertable VALUES ";
  for (uint64_t k = first; k < first + count && k < s.initial.size(); ++k) {
    if (k > first) sql += ", ";
    sql += "(" + std::to_string(k);
    for (const std::string& f : s.initial[k]) sql += ", '" + f + "'";
    sql += ")";
  }
  return sql;
}

// --- tpcc -------------------------------------------------------------------

const char* TpccTypeName(TpccType t) {
  switch (t) {
    case TpccType::kNewOrder: return "new_order";
    case TpccType::kPayment: return "payment";
    case TpccType::kOrderStatus: return "order_status";
    case TpccType::kDelivery: return "delivery";
    case TpccType::kStockLevel: return "stock_level";
  }
  return "?";
}

std::string TpccLastName(int num) {
  static const char* kSyllables[] = {"BAR", "OUGHT", "ABLE", "PRI",   "PRES",
                                     "ESE", "ANTI",  "CALLY", "ATION", "EING"};
  return std::string(kSyllables[(num / 100) % 10]) + kSyllables[(num / 10) % 10] +
         kSyllables[num % 10];
}

TpccStream MakeTpcc(const TpccConfig& cfg, uint64_t seed, uint64_t num_txns) {
  TpccStream s;
  Rng load(SubSeed(seed, "tpcc/load"));
  s.item_price.resize(static_cast<size_t>(cfg.items));
  for (int& p : s.item_price) p = 1 + static_cast<int>(load.Uniform(100));
  s.initial_stock.resize(static_cast<size_t>(cfg.warehouses * cfg.items));
  for (int& q : s.initial_stock) q = 10 + static_cast<int>(load.Uniform(91));

  Rng rng(SubSeed(seed, "tpcc/txns"));
  auto pick = [&rng](int n) { return 1 + static_cast<int>(rng.Uniform(static_cast<uint64_t>(n))); };
  MixDeck mix({45, 43, 4, 4, 4});  // the standard TPC-C mix
  s.txns.reserve(num_txns);
  for (uint64_t i = 0; i < num_txns; ++i) {
    TpccTxn t;
    t.type = static_cast<TpccType>(mix.Next(rng));
    t.w = pick(cfg.warehouses);
    t.d = pick(cfg.districts);
    t.c = pick(cfg.customers);
    if (t.type == TpccType::kNewOrder) {
      const int lines = 5 + static_cast<int>(rng.Uniform(11));
      for (int l = 0; l < lines; ++l) {
        int item = pick(cfg.items);
        // Distinct items per order: an order line per item.
        while (std::find(t.items.begin(), t.items.end(), item) != t.items.end()) {
          item = pick(cfg.items);
        }
        t.items.push_back(item);
        t.qty.push_back(pick(10));
      }
    } else if (t.type == TpccType::kPayment) {
      t.amount_cents = 100 + static_cast<int64_t>(rng.Uniform(500000));
      t.by_last_name = rng.Uniform(100) < 40;
    }
    s.txns.push_back(std::move(t));
  }
  return s;
}

std::string Describe(const TpccTxn& t) {
  std::string out = std::string(TpccTypeName(t.type)) + " " + std::to_string(t.w) +
                    "/" + std::to_string(t.d) + "/" + std::to_string(t.c) + " " +
                    std::to_string(t.amount_cents) + (t.by_last_name ? " L" : " I");
  for (size_t i = 0; i < t.items.size(); ++i) {
    out += " " + std::to_string(t.items[i]) + "x" + std::to_string(t.qty[i]);
  }
  return out;
}

// --- tenant-wake ------------------------------------------------------------

namespace {
/// `count` distinct values from [0, n).
std::vector<int> Distinct(Rng& rng, int n, int count) {
  std::vector<int> out;
  while (static_cast<int>(out.size()) < count) {
    const int v = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}
}  // namespace

WakeStream MakeWake(const WakeConfig& cfg, uint64_t seed, uint64_t num_wakes) {
  WakeStream s;
  Rng load(SubSeed(seed, "wake/load"));
  s.initial.resize(static_cast<size_t>(cfg.tenants));
  for (auto& rows : s.initial) {
    for (int k = 0; k < cfg.keys; ++k) rows.push_back({k, load.Letters(cfg.value_bytes)});
  }
  Rng rng(SubSeed(seed, "wake/ops"));
  const uint64_t bursts = (num_wakes + static_cast<uint64_t>(cfg.burst) - 1) /
                          static_cast<uint64_t>(cfg.burst);
  for (uint64_t b = 0; b < bursts; ++b) {
    std::vector<Wake> burst;
    for (int tenant : Distinct(rng, cfg.tenants, cfg.burst)) {
      Wake w;
      w.tenant = tenant;
      w.reads = Distinct(rng, cfg.keys, cfg.reads);
      for (int key : Distinct(rng, cfg.keys, cfg.writes)) {
        w.writes.push_back({key, rng.Letters(cfg.value_bytes)});
      }
      burst.push_back(std::move(w));
    }
    s.bursts.push_back(std::move(burst));
  }
  return s;
}

std::string Describe(const Wake& w) {
  std::string out = "t" + std::to_string(w.tenant) + " r";
  for (int k : w.reads) out += " " + std::to_string(k);
  out += " w";
  for (const WakeWrite& wr : w.writes) out += " " + std::to_string(wr.key) + "=" + wr.value;
  return out;
}

// --- kv-contend -------------------------------------------------------------

std::vector<std::vector<std::pair<uint64_t, uint64_t>>> MakeContend(
    const ContendConfig& cfg, uint64_t seed, uint64_t txns_per_thread) {
  const Zipf zipf(cfg.counters, cfg.theta);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> out(
      static_cast<size_t>(cfg.threads));
  for (int t = 0; t < cfg.threads; ++t) {
    Rng rng(SubSeed(seed, "contend/" + std::to_string(t)));
    auto& txns = out[static_cast<size_t>(t)];
    txns.reserve(txns_per_thread);
    for (uint64_t i = 0; i < txns_per_thread; ++i) {
      const uint64_t a = zipf.Next(rng);
      uint64_t b = zipf.Next(rng);
      while (b == a) b = zipf.Next(rng);
      txns.emplace_back(a, b);
    }
  }
  return out;
}

}  // namespace perfbench
