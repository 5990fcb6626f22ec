// Property-style suites on cross-cutting invariants: MVCC visibility
// against a reference model, engine crash-recovery durability, timestamp
// cache and replication-log behaviour, and fairness accounting.

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>

#include "common/logging.h"
#include "common/random.h"
#include "kv/mvcc.h"
#include "kv/cluster.h"
#include "kv/keys.h"
#include "kv/range.h"
#include "storage/engine.h"

namespace veloce {
namespace {

// ---------------------------------------------------------------------------
// MVCC vs. a reference model under randomized histories
// ---------------------------------------------------------------------------

// Reference MVCC model: per key, the committed history (ts -> value, or
// nullopt for a tombstone) and at most one provisional intent.
struct MvccModel {
  struct Intent {
    kv::TxnId txn = 0;
    kv::Timestamp ts;
    std::optional<std::string> value;  // nullopt: a deletion intent
  };
  std::map<std::string, std::map<kv::Timestamp, std::optional<std::string>>> versions;
  std::map<std::string, Intent> intents;

  // What MvccGet must return: the reader's own intent, else a foreign intent
  // at or below ts as a conflict, else the newest version at or below ts.
  kv::MvccGetResult Get(const std::string& key, kv::Timestamp ts,
                        kv::TxnId own_txn) const {
    kv::MvccGetResult out;
    if (auto in = intents.find(key); in != intents.end()) {
      if (own_txn != 0 && in->second.txn == own_txn) {
        out.value = in->second.value;
        return out;
      }
      if (in->second.ts <= ts) {
        out.conflict = kv::IntentMeta{in->second.txn, in->second.ts};
        return out;
      }
    }
    auto history = versions.find(key);
    if (history == versions.end()) return out;
    auto version = history->second.upper_bound(ts);
    if (version == history->second.begin()) return out;
    out.value = std::prev(version)->second;
    return out;
  }

  // What MvccScan must return: keys with any slot, in order, paged by limit
  // (the resume key is the next key holding any slot), stopping at the first
  // conflict.
  kv::MvccScanResult Scan(const std::string& start, const std::string& end,
                          kv::Timestamp ts, uint64_t limit, kv::TxnId own_txn) const {
    std::set<std::string> keys;
    for (const auto& [key, history] : versions) keys.insert(key);
    for (const auto& [key, intent] : intents) keys.insert(key);
    kv::MvccScanResult out;
    for (auto key = keys.lower_bound(start); key != keys.end(); ++key) {
      if (!end.empty() && *key >= end) break;
      if (limit != 0 && out.entries.size() >= limit) {
        out.resume_key = *key;
        break;
      }
      kv::MvccGetResult got = Get(*key, ts, own_txn);
      if (got.conflict.has_value()) {
        out.conflict = got.conflict;
        return out;
      }
      if (got.value.has_value()) out.entries.push_back({*key, *got.value});
    }
    return out;
  }

  // What MvccAnyNewerVersions must return.
  bool AnyNewer(const std::string& start, const std::string& end,
                kv::Timestamp after, kv::Timestamp upto) const {
    for (auto h = versions.lower_bound(start); h != versions.end(); ++h) {
      if (!end.empty() && h->first >= end) break;
      for (const auto& [ts, value] : h->second) {
        if (ts > after && ts <= upto) return true;
      }
    }
    return false;
  }
};

std::string Printable(const std::string& key) {
  std::string out;
  for (unsigned char c : key) {
    if (c >= 0x20 && c < 0x7F) {
      out.push_back(static_cast<char>(c));
    } else {
      static const char kHex[] = "0123456789abcdef";
      out += "\\x";
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xF]);
    }
  }
  return out;
}

void ExpectSameConflict(const std::optional<kv::IntentMeta>& got,
                        const std::optional<kv::IntentMeta>& want,
                        const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!want.has_value()) return;
  EXPECT_EQ(got->txn_id, want->txn_id) << where;
  EXPECT_EQ(got->ts, want->ts) << where;
}

void ExpectGetMatches(storage::Engine* engine, const MvccModel& model,
                      const std::string& key, kv::Timestamp ts, kv::TxnId own_txn) {
  const std::string where =
      "get " + Printable(key) + "@" + ts.ToString() + " txn " + std::to_string(own_txn);
  auto got = kv::MvccGet(engine, key, ts, own_txn);
  ASSERT_TRUE(got.ok()) << where;
  const kv::MvccGetResult want = model.Get(key, ts, own_txn);
  ExpectSameConflict(got->conflict, want.conflict, where);
  EXPECT_EQ(got->value, want.value) << where;
}

// Compares one scan page entry by entry, then follows its resume key until
// the span is exhausted or a conflict stops it.
void ExpectScanMatches(storage::Engine* engine, const MvccModel& model,
                       std::string start, const std::string& end, kv::Timestamp ts,
                       uint64_t limit, kv::TxnId own_txn) {
  for (int page = 0;; ++page) {
    ASSERT_LT(page, 1000) << "resume chain does not terminate";
    const std::string where = "scan [" + Printable(start) + ", " + Printable(end) +
                              ")@" + ts.ToString() + " limit " + std::to_string(limit) +
                              " txn " + std::to_string(own_txn);
    auto got = kv::MvccScan(engine, start, end, ts, limit, own_txn);
    ASSERT_TRUE(got.ok()) << where;
    const kv::MvccScanResult want = model.Scan(start, end, ts, limit, own_txn);
    ASSERT_EQ(got->entries.size(), want.entries.size()) << where;
    for (size_t i = 0; i < want.entries.size(); ++i) {
      EXPECT_EQ(Printable(got->entries[i].key), Printable(want.entries[i].key)) << where;
      EXPECT_EQ(got->entries[i].value, want.entries[i].value) << where;
    }
    ExpectSameConflict(got->conflict, want.conflict, where);
    EXPECT_EQ(Printable(got->resume_key), Printable(want.resume_key)) << where;
    if (want.conflict.has_value() || want.resume_key.empty()) return;
    start = want.resume_key;
  }
}

class MvccPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MvccPropertyTest, VisibilityMatchesModelAtEveryTimestamp) {
  auto engine = std::move(storage::Engine::Open({})).value();
  Random rng(GetParam());
  MvccModel model;

  Nanos wall = 10;
  for (int i = 0; i < 800; ++i) {
    const std::string key = "k" + std::to_string(rng.Uniform(30));
    wall += 1 + static_cast<Nanos>(rng.Uniform(5));
    const kv::Timestamp ts{wall, 0};
    storage::WriteBatch batch;
    if (rng.Bernoulli(0.2)) {
      kv::MvccPutTombstone(&batch, key, ts);
      model.versions[key][ts] = std::nullopt;
    } else {
      const std::string value = rng.String(1 + rng.Uniform(40));
      kv::MvccPutValue(&batch, key, ts, value);
      model.versions[key][ts] = value;
    }
    ASSERT_TRUE(engine->Write(batch).ok());
  }

  // Probe random (key, timestamp) pairs, including exact write timestamps.
  for (int probe = 0; probe < 500; ++probe) {
    const std::string key = "k" + std::to_string(rng.Uniform(30));
    const kv::Timestamp read_ts{1 + static_cast<Nanos>(rng.Uniform(wall + 5)), 0};
    ExpectGetMatches(engine.get(), model, key, read_ts, 0);
  }

  // Scans at random timestamps match the model too, entry by entry.
  for (int probe = 0; probe < 30; ++probe) {
    const kv::Timestamp read_ts{1 + static_cast<Nanos>(rng.Uniform(wall + 5)), 0};
    ExpectScanMatches(engine.get(), model, "k", "l", read_ts, 0, 0);
  }
}

// One key takes more than a thousand versions, split between SSTs and the
// memtable by a flush, among neighbours whose escaped encodings share its
// bytes; foreign and own intents sit above and below the read timestamps.
// Point reads, paged scans and refresh probes all match the model before
// and after the intents resolve.
TEST_P(MvccPropertyTest, DeepHistoryWithIntentsMatchesModel) {
  storage::EngineOptions opts;
  opts.block_bytes = 256;  // the hot history spans many blocks
  opts.prefix_extractor = kv::MvccPrefixExtractor;
  auto engine = std::move(storage::Engine::Open(opts)).value();
  Random rng(GetParam());
  MvccModel model;

  const std::string hot = "hot";
  const std::vector<std::string> keys = {
      "a", std::string("a\0", 2), std::string("a\0b", 3), "a\x01", "ab", "hos",
      hot, std::string("hot\0", 4), "hot0", "hou", "k\xff", "k\xff\xff", "z"};
  auto any_key = [&] { return keys[rng.Uniform(keys.size())]; };

  Nanos wall = 10;
  std::vector<kv::Timestamp> written;
  auto put_version = [&](const std::string& key) {
    wall += 1 + static_cast<Nanos>(rng.Uniform(3));
    const kv::Timestamp ts{wall, static_cast<uint32_t>(rng.Uniform(3))};
    written.push_back(ts);
    storage::WriteBatch batch;
    if (rng.Bernoulli(0.15)) {
      kv::MvccPutTombstone(&batch, key, ts);
      model.versions[key][ts] = std::nullopt;
    } else {
      const std::string value = rng.String(1 + rng.Uniform(24));
      kv::MvccPutValue(&batch, key, ts, value);
      model.versions[key][ts] = value;
    }
    ASSERT_TRUE(engine->Write(batch).ok());
  };
  auto put_intent = [&](const std::string& key) {
    const kv::TxnId txn = 1 + rng.Uniform(3);
    const kv::Timestamp ts{1 + static_cast<Nanos>(rng.Uniform(wall + 400)), 0};
    written.push_back(ts);
    const bool tombstone = rng.Bernoulli(0.2);
    const std::string value = tombstone ? std::string() : rng.String(1 + rng.Uniform(24));
    storage::WriteBatch batch;
    kv::MvccPutIntent(&batch, key, txn, ts, tombstone, value);
    ASSERT_TRUE(engine->Write(batch).ok());
    model.intents[key] = {txn, ts,
                          tombstone ? std::nullopt : std::optional<std::string>(value)};
  };

  // Every other write goes to the hot key: 1,100 versions plus its share of
  // the rest. The first batch of intents lands in SSTs with the flush; the
  // second stays in the memtable with the newest versions.
  for (int i = 0; i < 2200; ++i) {
    if (i == 700) {
      put_intent(hot);
      for (int n = 0; n < 3; ++n) put_intent(any_key());
    }
    if (i == 1100) {
      ASSERT_TRUE(engine->Flush().ok());
    }
    if (i == 1800) {
      for (int n = 0; n < 4; ++n) put_intent(any_key());
    }
    put_version(i % 2 == 0 ? hot : any_key());
  }
  ASSERT_GE(model.versions[hot].size(), 1000u);

  // A third of the probe timestamps hit a written one exactly, so the
  // inclusive read and refresh bounds are exercised.
  auto random_ts = [&] {
    if (rng.Bernoulli(0.33)) return written[rng.Uniform(written.size())];
    return kv::Timestamp{1 + static_cast<Nanos>(rng.Uniform(wall + 500)),
                         static_cast<uint32_t>(rng.Uniform(3))};
  };
  auto random_span = [&](std::string* start, std::string* end) {
    *start = rng.Bernoulli(0.2) ? std::string() : any_key();
    *end = rng.Bernoulli(0.3) ? std::string() : any_key();
    if (!end->empty() && *end < *start) std::swap(*start, *end);
  };
  auto check_all = [&] {
    for (int probe = 0; probe < 400; ++probe) {
      std::string key = rng.Bernoulli(0.5) ? hot : any_key();
      kv::Timestamp ts = random_ts();
      if (!model.intents.empty() && rng.Bernoulli(0.2)) {
        // Exactly at an intent's timestamp, where it starts to conflict.
        auto in = std::next(model.intents.begin(), rng.Uniform(model.intents.size()));
        key = in->first;
        ts = in->second.ts;
      }
      const kv::TxnId own = rng.Bernoulli(0.5) ? 0 : 1 + rng.Uniform(3);
      ExpectGetMatches(engine.get(), model, key, ts, own);
    }
    for (int probe = 0; probe < 60; ++probe) {
      std::string start, end;
      random_span(&start, &end);
      const kv::TxnId own = rng.Bernoulli(0.5) ? 0 : 1 + rng.Uniform(3);
      ExpectScanMatches(engine.get(), model, start, end, random_ts(), rng.Uniform(5), own);
    }
    for (int probe = 0; probe < 200; ++probe) {
      std::string start, end;
      random_span(&start, &end);
      const kv::Timestamp after = random_ts();
      const kv::Timestamp upto{after.wall + static_cast<Nanos>(rng.Uniform(60)),
                               static_cast<uint32_t>(rng.Uniform(3))};
      auto got = kv::MvccAnyNewerVersions(engine.get(), start, end, after, upto);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, model.AnyNewer(start, end, after, upto))
          << "refresh [" << Printable(start) << ", " << Printable(end) << ") ("
          << after.ToString() << ", " << upto.ToString() << "]";
    }
  };
  check_all();

  // Resolve every intent: commits become versions (possibly in the middle
  // of the history), aborts vanish. Then check again, before and after the
  // whole history is flushed.
  for (const auto& [key, intent] : model.intents) {
    const bool commit = rng.Bernoulli(0.6);
    const kv::Timestamp commit_ts{intent.ts.wall + static_cast<Nanos>(rng.Uniform(20)), 0};
    ASSERT_TRUE(kv::MvccResolveIntent(engine.get(), key, intent.txn, commit, commit_ts).ok());
    if (commit) model.versions[key][commit_ts] = intent.value;
  }
  model.intents.clear();
  check_all();
  ASSERT_TRUE(engine->Flush().ok());
  check_all();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MvccPropertyTest,
                         ::testing::Values(1, 7, 42, 1337));

// ---------------------------------------------------------------------------
// Engine crash-recovery durability under random workloads
// ---------------------------------------------------------------------------

class RecoveryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecoveryPropertyTest, ReopenPreservesEveryWrite) {
  auto env = storage::NewMemEnv();
  storage::EngineOptions opts;
  opts.env = env.get();
  opts.dir = "db";
  opts.memtable_bytes = 8 << 10;
  opts.sstable_target_bytes = 8 << 10;
  opts.level_base_bytes = 64 << 10;

  Random rng(GetParam());
  std::map<std::string, std::string> model;
  // Several open/mutate/close cycles; every cycle must see everything the
  // previous cycles wrote (WAL replay + manifest recovery together).
  for (int cycle = 0; cycle < 4; ++cycle) {
    auto engine = std::move(storage::Engine::Open(opts)).value();
    // Everything from previous cycles is visible.
    for (const auto& [key, value] : model) {
      std::string got;
      ASSERT_TRUE(engine->Get(key, &got).ok()) << "cycle " << cycle << " " << key;
      ASSERT_EQ(got, value);
    }
    for (int i = 0; i < 400; ++i) {
      const std::string key = "key" + std::to_string(rng.Uniform(120));
      if (rng.Bernoulli(0.15)) {
        ASSERT_TRUE(engine->Delete(key).ok());
        model.erase(key);
      } else {
        const std::string value = rng.String(1 + rng.Uniform(80));
        ASSERT_TRUE(engine->Put(key, value).ok());
        model[key] = value;
      }
    }
    if (cycle % 2 == 1) ASSERT_TRUE(engine->Flush().ok());
    // Engine destructor = crash point (no clean shutdown path exists).
  }
  auto engine = std::move(storage::Engine::Open(opts)).value();
  auto it = engine->NewIterator();
  auto model_it = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++model_it) {
    ASSERT_NE(model_it, model.end());
    EXPECT_EQ(it->key().ToString(), model_it->first);
    EXPECT_EQ(it->value().ToString(), model_it->second);
  }
  EXPECT_EQ(model_it, model.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryPropertyTest, ::testing::Values(3, 11, 29));

// ---------------------------------------------------------------------------
// TimestampCache
// ---------------------------------------------------------------------------

TEST(TimestampCacheTest, PointReadsRemembered) {
  kv::TimestampCache cache;
  cache.RecordRead("a", {100, 0});
  cache.RecordRead("a", {50, 0});  // older read doesn't regress
  EXPECT_EQ(cache.MaxReadTimestamp("a").wall, 100);
  EXPECT_EQ(cache.MaxReadTimestamp("b").wall, 0);
}

TEST(TimestampCacheTest, SpanReadsCoverContainedKeys) {
  kv::TimestampCache cache;
  cache.RecordReadSpan("b", "d", {200, 0});
  EXPECT_EQ(cache.MaxReadTimestamp("b").wall, 200);
  EXPECT_EQ(cache.MaxReadTimestamp("c").wall, 200);
  EXPECT_EQ(cache.MaxReadTimestamp("d").wall, 0);  // exclusive end
  EXPECT_EQ(cache.MaxReadTimestamp("a").wall, 0);
}

TEST(TimestampCacheTest, OverflowFoldsIntoLowWaterConservatively) {
  kv::TimestampCache cache;
  // Blow past the span cap; correctness must be preserved (the fold can
  // only raise other keys' timestamps, never lower a covered key's).
  for (size_t i = 0; i < kv::TimestampCache::kMaxSpans + 10; ++i) {
    cache.RecordReadSpan("k" + std::to_string(i), "k" + std::to_string(i) + "x",
                         {static_cast<Nanos>(100 + i), 0});
  }
  // Every recorded span's timestamp is still covered (possibly via the
  // low-water mark).
  EXPECT_GE(cache.MaxReadTimestamp("k5").wall, 105);
  EXPECT_GE(cache.MaxReadTimestamp("k100").wall, 200);
}

TEST(TimestampCacheTest, PointOverflowSafe) {
  kv::TimestampCache cache;
  for (size_t i = 0; i < kv::TimestampCache::kMaxPoints + 100; ++i) {
    cache.RecordRead("p" + std::to_string(i), {static_cast<Nanos>(10 + i), 0});
  }
  // A key recorded before the fold keeps (at least) its timestamp.
  EXPECT_GE(cache.MaxReadTimestamp("p10").wall, 20);
}

// ---------------------------------------------------------------------------
// ReplicationLog
// ---------------------------------------------------------------------------

TEST(ReplicationLogTest, AppendsAndTerms) {
  kv::ReplicationLog log;
  EXPECT_EQ(log.term(), 1u);
  kv::LogRecord r1;
  r1.payload = "cmd1";
  kv::LogRecord r2;
  r2.payload = "cmd22";
  EXPECT_EQ(log.Append(std::move(r1)), 1u);
  EXPECT_EQ(log.Append(std::move(r2)), 2u);
  EXPECT_EQ(log.committed_index(), 2u);
  EXPECT_EQ(log.committed_bytes(), 9u);
  log.BumpTerm();
  EXPECT_EQ(log.term(), 2u);
  EXPECT_EQ(log.committed_index(), 2u);  // term change preserves the log
}

TEST(ReplicationLogTest, AppliedTrackingAndTruncation) {
  kv::ReplicationLog log;
  for (int i = 0; i < 10; ++i) {
    kv::LogRecord rec;
    rec.payload = "cmd" + std::to_string(i);
    log.Append(std::move(rec));
  }
  log.SetApplied(0, 10);
  log.SetApplied(1, 4);
  EXPECT_EQ(log.Applied(0), 10u);
  EXPECT_EQ(log.Applied(1), 4u);
  EXPECT_EQ(log.Applied(7), 0u);  // unknown replica: nothing applied
  EXPECT_EQ(log.first_index(), 1u);
  EXPECT_TRUE(log.CanReplayFrom(4));
  log.TruncateTo(4);  // min applied across {10, 4}
  EXPECT_EQ(log.first_index(), 5u);
  EXPECT_TRUE(log.CanReplayFrom(4));
  EXPECT_FALSE(log.CanReplayFrom(2));  // truncated away: snapshot path
  log.TruncateTo(10);
  EXPECT_EQ(log.first_index(), 11u);  // empty log: committed + 1
  EXPECT_EQ(log.committed_index(), 10u);
}

// ---------------------------------------------------------------------------
// Range directory: arbitrary split/merge/move interleavings keep the
// keyspace a partition (no gaps, no overlaps, tenant-aligned)
// ---------------------------------------------------------------------------

/// One randomized directory mutation. Operands are raw draws; the applier
/// reduces them modulo whatever is currently valid, so every (kind, a, b,
/// c) triple is applicable to any directory state — which is what makes
/// shrinking by plain subsequence removal sound.
struct DirOp {
  enum class Kind { kSplit, kMerge, kMove } kind;
  uint64_t a = 0, b = 0, c = 0;

  std::string ToString() const {
    const char* names[] = {"split", "merge", "move"};
    return std::string(names[static_cast<int>(kind)]) + "(" +
           std::to_string(a) + "," + std::to_string(b) + "," +
           std::to_string(c) + ")";
  }
};

constexpr int kDirTenants = 3;
constexpr int kDirNodes = 4;

std::vector<DirOp> GenDirOps(uint64_t seed, int n) {
  Random rng(seed);
  std::vector<DirOp> ops;
  ops.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    DirOp op;
    const uint64_t k = rng.Uniform(10);
    // Splits weighted heaviest so directories actually grow.
    op.kind = k < 5   ? DirOp::Kind::kSplit
              : k < 8 ? DirOp::Kind::kMerge
                      : DirOp::Kind::kMove;
    op.a = rng.Next();
    op.b = rng.Next();
    op.c = rng.Next();
    ops.push_back(op);
  }
  return ops;
}

/// Replays `ops` against a fresh cluster, checking the partition invariant
/// after every step. Individual ops are allowed to be rejected (merge
/// guards, move guards) — the property is about the directory's shape, not
/// op success. Returns "" or the violation (with the op index).
std::string ApplyDirOps(const std::vector<DirOp>& ops) {
  ManualClock clock(100 * kSecond);
  kv::KVClusterOptions co;
  co.num_nodes = kDirNodes;
  co.replication_factor = 3;
  co.clock = &clock;
  auto cluster = std::make_unique<kv::KVCluster>(co);
  for (int t = 0; t < kDirTenants; ++t) {
    VELOCE_CHECK_OK(cluster->CreateTenantKeyspace(10 + t));
  }

  auto check = [&cluster]() -> std::string {
    std::vector<kv::RangeDescriptor> ranges = cluster->Ranges();
    std::sort(ranges.begin(), ranges.end(),
              [](const kv::RangeDescriptor& x, const kv::RangeDescriptor& y) {
                return x.start_key < y.start_key;
              });
    if (ranges.empty() || !ranges.front().start_key.empty()) {
      return "first range does not start at -inf";
    }
    for (size_t i = 0; i < ranges.size(); ++i) {
      const kv::RangeDescriptor& d = ranges[i];
      if (i + 1 == ranges.size()) {
        if (!d.end_key.empty()) return "last range does not end at +inf";
      } else if (d.end_key.empty() || d.end_key != ranges[i + 1].start_key) {
        return "gap/overlap after range " + std::to_string(d.range_id);
      }
      if (d.tenant_id != 0) {
        if (d.start_key < kv::TenantPrefix(d.tenant_id) ||
            d.end_key.empty() ||
            d.end_key > kv::TenantPrefixEnd(d.tenant_id)) {
          return "range " + std::to_string(d.range_id) +
                 " escapes tenant " + std::to_string(d.tenant_id);
        }
      }
    }
    return "";
  };

  for (size_t i = 0; i < ops.size(); ++i) {
    const DirOp& op = ops[i];
    switch (op.kind) {
      case DirOp::Kind::kSplit: {
        const kv::TenantId t = 10 + static_cast<kv::TenantId>(op.a % kDirTenants);
        char buf[8];
        std::snprintf(buf, sizeof(buf), "k%03d",
                      static_cast<int>(op.b % 64));
        (void)cluster->SplitRange(kv::AddTenantPrefix(t, buf));
        break;
      }
      case DirOp::Kind::kMerge: {
        const auto ranges = cluster->Ranges();
        const auto& d = ranges[op.a % ranges.size()];
        (void)cluster->MergeRanges(d.range_id);
        break;
      }
      case DirOp::Kind::kMove: {
        const auto ranges = cluster->Ranges();
        const auto& d = ranges[op.a % ranges.size()];
        const kv::NodeId from =
            d.replicas[op.b % d.replicas.size()];
        const kv::NodeId to = static_cast<kv::NodeId>(op.c % kDirNodes);
        (void)cluster->MoveReplica(d.range_id, from, to);
        break;
      }
    }
    std::string err = check();
    if (!err.empty()) {
      return "after op #" + std::to_string(i) + " " + ops[i].ToString() +
             ": " + err;
    }
  }
  return "";
}

/// Greedy delta-debugging: repeatedly try dropping chunks (halving sizes
/// down to single ops); keep any removal that still fails. Returns the
/// minimized sequence.
std::vector<DirOp> ShrinkDirOps(
    std::vector<DirOp> ops,
    const std::function<bool(const std::vector<DirOp>&)>& fails) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t chunk = std::max<size_t>(1, ops.size() / 2); chunk >= 1;
         chunk /= 2) {
      for (size_t at = 0; at + chunk <= ops.size();) {
        std::vector<DirOp> candidate = ops;
        candidate.erase(candidate.begin() + static_cast<long>(at),
                        candidate.begin() + static_cast<long>(at + chunk));
        if (fails(candidate)) {
          ops = std::move(candidate);
          progress = true;
        } else {
          at += chunk;
        }
      }
      if (chunk == 1) break;
    }
  }
  return ops;
}

class DirectoryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DirectoryPropertyTest, InterleavingsKeepKeyspacePartitioned) {
  const auto ops = GenDirOps(GetParam(), 60);
  std::string violation = ApplyDirOps(ops);
  if (!violation.empty()) {
    // Shrink before failing so the report carries a minimal reproducer.
    const auto minimal = ShrinkDirOps(
        ops, [](const std::vector<DirOp>& c) { return !ApplyDirOps(c).empty(); });
    std::string repro;
    for (const DirOp& op : minimal) repro += "  " + op.ToString() + "\n";
    FAIL() << violation << "\nminimal reproducer (" << minimal.size()
           << " ops):\n"
           << repro;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectoryPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// The shrinker itself must minimize: against a synthetic failure predicate
// ("sequence contains a merge and a move"), any failing sequence reduces
// to exactly those two ops.
TEST(DirectoryPropertyTest, ShrinkerFindsMinimalReproducer) {
  auto fails = [](const std::vector<DirOp>& ops) {
    bool merge = false, move = false;
    for (const DirOp& op : ops) {
      merge |= op.kind == DirOp::Kind::kMerge;
      move |= op.kind == DirOp::Kind::kMove;
    }
    return merge && move;
  };
  const auto ops = GenDirOps(99, 60);
  ASSERT_TRUE(fails(ops)) << "generator produced no merge+move ops";
  const auto minimal = ShrinkDirOps(ops, fails);
  ASSERT_EQ(minimal.size(), 2u);
  EXPECT_TRUE(fails(minimal));
}

}  // namespace
}  // namespace veloce
