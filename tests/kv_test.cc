#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "common/logging.h"
#include "common/random.h"
#include "kv/cluster.h"
#include "kv/keys.h"
#include "kv/mvcc.h"
#include "kv/timestamp.h"
#include "kv/transaction.h"
#include "kv/txn.h"
#include "storage/env.h"

namespace veloce::kv {
namespace {

// ---------------------------------------------------------------------------
// Timestamps / HLC
// ---------------------------------------------------------------------------

TEST(TimestampTest, Ordering) {
  Timestamp a{100, 0}, b{100, 1}, c{101, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a.Next(), b);
  EXPECT_EQ(b.Prev(), a);
  EXPECT_LT(Timestamp::Min(), a);
  EXPECT_LT(c, Timestamp::Max());
}

TEST(HlcTest, StrictlyMonotonic) {
  ManualClock physical(1000);
  HybridLogicalClock hlc(&physical);
  Timestamp prev = hlc.Now();
  for (int i = 0; i < 100; ++i) {
    const Timestamp t = hlc.Now();
    EXPECT_LT(prev, t);
    prev = t;
  }
  // Logical component grows while wall time is frozen.
  EXPECT_EQ(prev.wall, 1000);
  EXPECT_GT(prev.logical, 0u);
}

TEST(HlcTest, AdvancesWithPhysicalClock) {
  ManualClock physical(1000);
  HybridLogicalClock hlc(&physical);
  hlc.Now();
  physical.Advance(500);
  const Timestamp t = hlc.Now();
  EXPECT_EQ(t.wall, 1500);
  EXPECT_EQ(t.logical, 0u);
}

TEST(HlcTest, UpdateFoldsRemoteTimestamps) {
  ManualClock physical(1000);
  HybridLogicalClock hlc(&physical);
  hlc.Update({5000, 7});
  const Timestamp t = hlc.Now();
  EXPECT_GT(t, (Timestamp{5000, 7}));
}

// ---------------------------------------------------------------------------
// MVCC key encoding
// ---------------------------------------------------------------------------

TEST(MvccKeyTest, RoundTrip) {
  const std::string encoded = EncodeMvccKey("table/row1", {123456, 7});
  std::string user_key;
  Timestamp ts;
  bool is_intent = true;
  ASSERT_TRUE(DecodeMvccKey(encoded, &user_key, &ts, &is_intent));
  EXPECT_EQ(user_key, "table/row1");
  EXPECT_EQ(ts.wall, 123456);
  EXPECT_EQ(ts.logical, 7u);
  EXPECT_FALSE(is_intent);
}

TEST(MvccKeyTest, IntentSlotSortsFirst) {
  const std::string intent = EncodeIntentKey("key");
  const std::string newest = EncodeMvccKey("key", Timestamp::Max().Prev());
  const std::string old_version = EncodeMvccKey("key", {1, 0});
  EXPECT_LT(intent, newest);
  EXPECT_LT(newest, old_version);  // newer versions sort before older
}

TEST(MvccKeyTest, VersionsGroupedByUserKey) {
  // Every slot of "a" sorts before any slot of "b".
  EXPECT_LT(EncodeMvccKey("a", {1, 0}), EncodeIntentKey("b"));
  EXPECT_LT(EncodeIntentKey("a"), EncodeMvccKey("a", Timestamp::Max().Prev()));
  // Keys with embedded zero bytes don't interleave.
  const std::string k1("a", 1), k2("a\x00", 2);
  EXPECT_LT(EncodeMvccKey(k1, {1, 0}), EncodeIntentKey(k2));
}

// ---------------------------------------------------------------------------
// MVCC operations on a raw engine
// ---------------------------------------------------------------------------

class MvccTest : public ::testing::Test {
 protected:
  void SetUp() override { engine_ = std::move(storage::Engine::Open({})).value(); }

  void PutValue(Slice key, Timestamp ts, Slice value) {
    storage::WriteBatch batch;
    MvccPutValue(&batch, key, ts, value);
    ASSERT_TRUE(engine_->Write(batch).ok());
  }
  void PutTombstone(Slice key, Timestamp ts) {
    storage::WriteBatch batch;
    MvccPutTombstone(&batch, key, ts);
    ASSERT_TRUE(engine_->Write(batch).ok());
  }
  void PutIntent(Slice key, TxnId txn, Timestamp ts, Slice value) {
    storage::WriteBatch batch;
    MvccPutIntent(&batch, key, txn, ts, false, value);
    ASSERT_TRUE(engine_->Write(batch).ok());
  }

  std::unique_ptr<storage::Engine> engine_;
};

TEST_F(MvccTest, ReadsAtTimestamp) {
  PutValue("k", {10, 0}, "v10");
  PutValue("k", {20, 0}, "v20");
  auto r5 = *MvccGet(engine_.get(), "k", {5, 0});
  EXPECT_FALSE(r5.value.has_value());
  auto r15 = *MvccGet(engine_.get(), "k", {15, 0});
  ASSERT_TRUE(r15.value.has_value());
  EXPECT_EQ(*r15.value, "v10");
  auto r25 = *MvccGet(engine_.get(), "k", {25, 0});
  ASSERT_TRUE(r25.value.has_value());
  EXPECT_EQ(*r25.value, "v20");
  // Reading exactly at the write timestamp sees the write.
  auto r20 = *MvccGet(engine_.get(), "k", {20, 0});
  ASSERT_TRUE(r20.value.has_value());
  EXPECT_EQ(*r20.value, "v20");
}

TEST_F(MvccTest, TombstoneHidesValue) {
  PutValue("k", {10, 0}, "v");
  PutTombstone("k", {20, 0});
  auto r = *MvccGet(engine_.get(), "k", {30, 0});
  EXPECT_FALSE(r.value.has_value());
  EXPECT_FALSE(r.conflict.has_value());
  // Time travel below the tombstone still sees the value.
  auto old = *MvccGet(engine_.get(), "k", {15, 0});
  ASSERT_TRUE(old.value.has_value());
}

TEST_F(MvccTest, ForeignIntentBelowReadTsConflicts) {
  PutValue("k", {10, 0}, "committed");
  PutIntent("k", /*txn=*/42, {20, 0}, "provisional");
  auto r = *MvccGet(engine_.get(), "k", {30, 0});
  ASSERT_TRUE(r.conflict.has_value());
  EXPECT_EQ(r.conflict->txn_id, 42u);
  EXPECT_EQ(r.conflict->ts.wall, 20);
}

TEST_F(MvccTest, ForeignIntentAboveReadTsInvisible) {
  PutValue("k", {10, 0}, "committed");
  PutIntent("k", 42, {100, 0}, "future");
  auto r = *MvccGet(engine_.get(), "k", {30, 0});
  EXPECT_FALSE(r.conflict.has_value());
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, "committed");
}

TEST_F(MvccTest, OwnIntentReadable) {
  PutValue("k", {10, 0}, "old");
  PutIntent("k", 42, {20, 0}, "mine");
  auto r = *MvccGet(engine_.get(), "k", {30, 0}, /*own_txn=*/42);
  EXPECT_FALSE(r.conflict.has_value());
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, "mine");
}

TEST_F(MvccTest, ResolveIntentCommit) {
  PutIntent("k", 42, {20, 0}, "value");
  ASSERT_TRUE(MvccResolveIntent(engine_.get(), "k", 42, true, {25, 0}).ok());
  auto r = *MvccGet(engine_.get(), "k", {30, 0});
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, "value");
  // The committed version is at the commit timestamp, not the intent's.
  auto r22 = *MvccGet(engine_.get(), "k", {22, 0});
  EXPECT_FALSE(r22.value.has_value());
  auto intent = *MvccGetIntent(engine_.get(), "k");
  EXPECT_FALSE(intent.has_value());
}

TEST_F(MvccTest, ResolveIntentAbort) {
  PutValue("k", {10, 0}, "old");
  PutIntent("k", 42, {20, 0}, "aborted-write");
  ASSERT_TRUE(MvccResolveIntent(engine_.get(), "k", 42, false, {}).ok());
  auto r = *MvccGet(engine_.get(), "k", {30, 0});
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, "old");
}

TEST_F(MvccTest, ResolveWrongTxnIsNoop) {
  PutIntent("k", 42, {20, 0}, "value");
  ASSERT_TRUE(MvccResolveIntent(engine_.get(), "k", 99, true, {25, 0}).ok());
  auto intent = *MvccGetIntent(engine_.get(), "k");
  ASSERT_TRUE(intent.has_value());
  EXPECT_EQ(intent->txn_id, 42u);
}

TEST_F(MvccTest, UpdateIntentTimestamp) {
  PutIntent("k", 42, {20, 0}, "value");
  ASSERT_TRUE(MvccUpdateIntentTimestamp(engine_.get(), "k", 42, {50, 0}).ok());
  auto r = *MvccGet(engine_.get(), "k", {30, 0});
  EXPECT_FALSE(r.conflict.has_value()) << "pushed intent should be invisible";
  auto intent = *MvccGetIntent(engine_.get(), "k");
  ASSERT_TRUE(intent.has_value());
  EXPECT_EQ(intent->ts.wall, 50);
}

TEST_F(MvccTest, ScanVisibleVersions) {
  PutValue("a", {10, 0}, "1");
  PutValue("b", {10, 0}, "2");
  PutValue("b", {20, 0}, "2new");
  PutTombstone("c", {15, 0});
  PutValue("c", {5, 0}, "3");
  PutValue("d", {10, 0}, "4");
  auto res = *MvccScan(engine_.get(), "a", "e", {30, 0}, 0);
  ASSERT_EQ(res.entries.size(), 3u);
  EXPECT_EQ(res.entries[0].key, "a");
  EXPECT_EQ(res.entries[1].value, "2new");
  EXPECT_EQ(res.entries[2].key, "d");
}

TEST_F(MvccTest, ScanHonorsLimitAndResume) {
  for (int i = 0; i < 10; ++i) {
    PutValue("k" + std::to_string(i), {10, 0}, "v");
  }
  auto res = *MvccScan(engine_.get(), "k0", "k9\xff", {30, 0}, 4);
  EXPECT_EQ(res.entries.size(), 4u);
  EXPECT_EQ(res.resume_key, "k4");
  auto res2 = *MvccScan(engine_.get(), res.resume_key, "k9\xff", {30, 0}, 0);
  EXPECT_EQ(res2.entries.size(), 6u);
}

TEST_F(MvccTest, ScanStopsAtConflict) {
  PutValue("a", {10, 0}, "1");
  PutIntent("b", 42, {10, 0}, "locked");
  PutValue("c", {10, 0}, "3");
  auto res = *MvccScan(engine_.get(), "a", "z", {30, 0}, 0);
  ASSERT_TRUE(res.conflict.has_value());
  EXPECT_EQ(res.conflict->txn_id, 42u);
}

TEST_F(MvccTest, AnyNewerVersionsProbe) {
  PutValue("k1", {10, 0}, "v");
  PutValue("k2", {50, 0}, "v");
  EXPECT_FALSE(*MvccAnyNewerVersions(engine_.get(), "k", "l", {50, 0}, {100, 0}));
  EXPECT_TRUE(*MvccAnyNewerVersions(engine_.get(), "k", "l", {20, 0}, {60, 0}));
  EXPECT_FALSE(*MvccAnyNewerVersions(engine_.get(), "k", "l", {60, 0}, {200, 0}));
}

// A refresh fails on another txn's intent at or below its target: that txn
// may commit there (a STAGING txn may already be implicitly committed). The
// refreshing txn's own intent does not count.
TEST_F(MvccTest, AnyNewerVersionsCountsForeignIntents) {
  PutValue("k1", {10, 0}, "v");
  PutIntent("k2", 42, {50, 0}, "pending");
  EXPECT_TRUE(*MvccAnyNewerVersions(engine_.get(), "k", "l", {20, 0}, {60, 0}, 7));
  EXPECT_TRUE(*MvccAnyNewerVersions(engine_.get(), "k", "l", {20, 0}, {50, 0}, 7));
  EXPECT_FALSE(*MvccAnyNewerVersions(engine_.get(), "k", "l", {20, 0}, {49, 0}, 7));
  EXPECT_FALSE(*MvccAnyNewerVersions(engine_.get(), "k", "l", {20, 0}, {60, 0}, 42));
}

TEST_F(MvccTest, GetIntentReportsNewestVersion) {
  // The probe is bounded to the key: a neighbour's versions never leak in.
  PutValue("k0", {30, 0}, "another key");
  Timestamp newest;
  EXPECT_FALSE((*MvccGetIntent(engine_.get(), "k", &newest)).has_value());
  EXPECT_TRUE(newest.IsEmpty());
  PutValue("k", {10, 0}, "v10");
  PutTombstone("k", {20, 0});
  EXPECT_FALSE((*MvccGetIntent(engine_.get(), "k", &newest)).has_value());
  EXPECT_EQ(newest, (Timestamp{20, 0}));  // a tombstone is a version too
  PutIntent("k", 7, {25, 0}, "pending");
  auto intent = *MvccGetIntent(engine_.get(), "k", &newest);
  ASSERT_TRUE(intent.has_value());
  EXPECT_EQ(intent->txn_id, 7u);
  EXPECT_EQ(intent->ts, (Timestamp{25, 0}));
  EXPECT_EQ(newest, (Timestamp{20, 0}));
}

// Counts the positional reads the engine issues against SSTable files. With
// the block cache off, every data-block load is one Read, so the count is
// the number of blocks a read touched (plus a one-time filter load).
class ReadCountingEnv final : public storage::Env {
 public:
  explicit ReadCountingEnv(storage::Env* base) : base_(base) {}

  uint64_t reads() const { return reads_; }
  void ResetReads() { reads_ = 0; }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<storage::WritableFile>* file) override {
    return base_->NewWritableFile(fname, file);
  }
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<storage::RandomAccessFile>* file) override {
    std::unique_ptr<storage::RandomAccessFile> inner;
    VELOCE_RETURN_IF_ERROR(base_->NewRandomAccessFile(fname, &inner));
    *file = std::make_unique<CountingFile>(std::move(inner), &reads_);
    return Status::OK();
  }
  Status DeleteFile(const std::string& fname) override { return base_->DeleteFile(fname); }
  bool FileExists(const std::string& fname) override { return base_->FileExists(fname); }
  Status GetChildren(const std::string& dir, std::vector<std::string>* out) override {
    return base_->GetChildren(dir, out);
  }
  Status CreateDirIfMissing(const std::string& dir) override {
    return base_->CreateDirIfMissing(dir);
  }
  Status RenameFile(const std::string& src, const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  class CountingFile final : public storage::RandomAccessFile {
   public:
    CountingFile(std::unique_ptr<storage::RandomAccessFile> inner, uint64_t* reads)
        : inner_(std::move(inner)), reads_(reads) {}
    Status Read(uint64_t offset, size_t n, std::string* out) const override {
      ++*reads_;
      return inner_->Read(offset, n, out);
    }
    uint64_t Size() const override { return inner_->Size(); }

   private:
    std::unique_ptr<storage::RandomAccessFile> inner_;
    uint64_t* reads_;
  };

  storage::Env* base_;
  uint64_t reads_ = 0;
};

// A read's cost must not grow with its key's history: 2,000 versions of one
// key span hundreds of 256-byte blocks, yet a read at the newest timestamp,
// a read deep in the history and a refresh probe each load only a handful.
TEST(MvccCostTest, ReadsTouchFixedBlocksRegardlessOfHistory) {
  auto mem_env = storage::NewMemEnv();
  ReadCountingEnv env(mem_env.get());
  storage::EngineOptions opts;
  opts.env = &env;
  opts.dir = "db";
  opts.block_bytes = 256;
  opts.block_cache_bytes = 0;
  opts.prefix_extractor = MvccPrefixExtractor;
  auto engine = std::move(storage::Engine::Open(opts)).value();

  constexpr int kVersions = 2000;
  for (int i = 1; i <= kVersions; ++i) {
    storage::WriteBatch batch;
    MvccPutValue(&batch, "hot", {i * 10, 0}, "value-" + std::to_string(i));
    ASSERT_TRUE(engine->Write(batch).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  const Timestamp newest{kVersions * 10, 0};
  constexpr uint64_t kMaxReads = 4;

  // Walking the whole history costs one read per block it spans.
  env.ResetReads();
  auto all = engine->NewIterator();
  for (all->SeekToFirst(); all->Valid(); all->Next()) {
  }
  const uint64_t history_blocks = env.reads();
  ASSERT_GT(history_blocks, 100u);

  env.ResetReads();
  auto latest = *MvccGet(engine.get(), "hot", newest);
  ASSERT_TRUE(latest.value.has_value());
  EXPECT_EQ(*latest.value, "value-2000");
  EXPECT_LE(env.reads(), kMaxReads) << "history spans " << history_blocks << " blocks";

  env.ResetReads();
  auto middle = *MvccGet(engine.get(), "hot", {kVersions * 5, 0});
  ASSERT_TRUE(middle.value.has_value());
  EXPECT_EQ(*middle.value, "value-1000");
  EXPECT_LE(env.reads(), kMaxReads) << "history spans " << history_blocks << " blocks";

  // A refresh with nothing newer than the newest version: the probe must
  // decide from that one version, not by visiting the other 1,999.
  env.ResetReads();
  EXPECT_FALSE(*MvccAnyNewerVersions(engine.get(), "hot", "hou", newest, newest));
  EXPECT_LE(env.reads(), kMaxReads) << "history spans " << history_blocks << " blocks";
}

// ---------------------------------------------------------------------------
// TxnRegistry
// ---------------------------------------------------------------------------

class TxnRegistryTest : public ::testing::Test {
 protected:
  TxnRegistryTest() : clock_(1000), registry_(&clock_) {}
  ManualClock clock_;
  TxnRegistry registry_;
};

TEST_F(TxnRegistryTest, BeginCommit) {
  TxnRecord rec = registry_.Begin({100, 0}, 0);
  EXPECT_EQ(rec.status, TxnStatus::kPending);
  ASSERT_TRUE(registry_.Commit(rec.id, {110, 0}).ok());
  auto got = *registry_.Get(rec.id);
  EXPECT_EQ(got.status, TxnStatus::kCommitted);
  EXPECT_EQ(got.write_ts.wall, 110);
}

TEST_F(TxnRegistryTest, CommitAfterAbortFails) {
  TxnRecord rec = registry_.Begin({100, 0}, 0);
  ASSERT_TRUE(registry_.Abort(rec.id).ok());
  EXPECT_EQ(registry_.Commit(rec.id, {110, 0}).code(), Code::kTransactionAborted);
}

TEST_F(TxnRegistryTest, PushLosesAgainstHealthyEqualPriority) {
  TxnRecord rec = registry_.Begin({100, 0}, 0);
  PushResult pr = registry_.Push(rec.id, 0, TxnRegistry::PushType::kAbort, {200, 0});
  EXPECT_FALSE(pr.pushed);
  EXPECT_EQ(pr.pushee_status, TxnStatus::kPending);
}

TEST_F(TxnRegistryTest, HigherPriorityPusherAborts) {
  TxnRecord rec = registry_.Begin({100, 0}, 0);
  PushResult pr = registry_.Push(rec.id, 10, TxnRegistry::PushType::kAbort, {200, 0});
  EXPECT_TRUE(pr.pushed);
  EXPECT_EQ(pr.pushee_status, TxnStatus::kAborted);
}

TEST_F(TxnRegistryTest, TimestampPushMovesWriteTs) {
  TxnRecord rec = registry_.Begin({100, 0}, 0);
  PushResult pr =
      registry_.Push(rec.id, 10, TxnRegistry::PushType::kTimestamp, {200, 0});
  EXPECT_TRUE(pr.pushed);
  EXPECT_EQ(pr.pushee_status, TxnStatus::kPending);
  auto got = *registry_.Get(rec.id);
  EXPECT_GT(got.write_ts, (Timestamp{200, 0}));
  EXPECT_EQ(got.status, TxnStatus::kPending);
}

TEST_F(TxnRegistryTest, ExpiredTxnAbortable) {
  TxnRecord rec = registry_.Begin({100, 0}, 0);
  clock_.Advance(TxnRegistry::kExpiration + kSecond);
  PushResult pr = registry_.Push(rec.id, 0, TxnRegistry::PushType::kAbort, {200, 0});
  EXPECT_TRUE(pr.pushed);
  EXPECT_EQ(pr.pushee_status, TxnStatus::kAborted);
}

TEST_F(TxnRegistryTest, HeartbeatPreventsExpiration) {
  TxnRecord rec = registry_.Begin({100, 0}, 0);
  for (int i = 0; i < 5; ++i) {
    clock_.Advance(TxnRegistry::kExpiration / 2);
    ASSERT_TRUE(registry_.Heartbeat(rec.id).ok());
  }
  PushResult pr = registry_.Push(rec.id, 0, TxnRegistry::PushType::kAbort, {200, 0});
  EXPECT_FALSE(pr.pushed);
}

TEST_F(TxnRegistryTest, PushUnknownTxnTreatedAborted) {
  PushResult pr = registry_.Push(9999, 0, TxnRegistry::PushType::kAbort, {200, 0});
  EXPECT_TRUE(pr.pushed);
  EXPECT_EQ(pr.pushee_status, TxnStatus::kAborted);
}

TEST_F(TxnRegistryTest, GarbageCollectRemovesOldFinalized) {
  TxnRecord a = registry_.Begin({100, 0}, 0);
  TxnRecord b = registry_.Begin({100, 0}, 0);
  ASSERT_TRUE(registry_.Commit(a.id, {110, 0}).ok());
  clock_.Advance(TxnRegistry::kExpiration * 2);
  const size_t removed = registry_.GarbageCollect();
  EXPECT_EQ(removed, 1u);
  EXPECT_TRUE(registry_.Get(a.id).status().IsNotFound());
  EXPECT_TRUE(registry_.Get(b.id).ok());  // pending records are kept
}

// ---------------------------------------------------------------------------
// Batch encode/decode
// ---------------------------------------------------------------------------

TEST(BatchCodecTest, RequestRoundTrip) {
  BatchRequest req;
  req.tenant_id = 7;
  req.ts = {123, 4};
  req.txn_id = 99;
  req.txn_priority = -3;
  req.AddGet("key1");
  req.AddPut("key2", "value2");
  req.AddDelete("key3");
  req.AddScan("a", "z", 100);

  auto decoded = *BatchRequest::Decode(req.Encode());
  EXPECT_EQ(decoded.tenant_id, 7u);
  EXPECT_EQ(decoded.ts, req.ts);
  EXPECT_EQ(decoded.txn_id, 99u);
  EXPECT_EQ(decoded.txn_priority, -3);
  ASSERT_EQ(decoded.requests.size(), 4u);
  EXPECT_EQ(decoded.requests[0].type, RequestType::kGet);
  EXPECT_EQ(decoded.requests[1].value, "value2");
  EXPECT_EQ(decoded.requests[3].limit, 100u);
  EXPECT_EQ(decoded.PayloadBytes(), req.PayloadBytes());
}

TEST(BatchCodecTest, ResponseRoundTrip) {
  BatchResponse resp;
  resp.now = {55, 1};
  ResponseUnion r1;
  r1.found = true;
  r1.value = "hello";
  ResponseUnion r2;
  r2.rows.push_back({"k1", "v1"});
  r2.rows.push_back({"k2", "v2"});
  r2.resume_key = "k3";
  resp.responses = {r1, r2};

  auto decoded = *BatchResponse::Decode(resp.Encode());
  ASSERT_EQ(decoded.responses.size(), 2u);
  EXPECT_TRUE(decoded.responses[0].found);
  EXPECT_EQ(decoded.responses[0].value, "hello");
  ASSERT_EQ(decoded.responses[1].rows.size(), 2u);
  EXPECT_EQ(decoded.responses[1].resume_key, "k3");
  EXPECT_EQ(decoded.PayloadBytes(), resp.PayloadBytes());
}

TEST(BatchCodecTest, DecodeGarbageFails) {
  EXPECT_FALSE(BatchRequest::Decode("short").ok());
  EXPECT_FALSE(BatchResponse::Decode("x").ok());
}

// ---------------------------------------------------------------------------
// Tenant key helpers
// ---------------------------------------------------------------------------

TEST(TenantKeysTest, PrefixesAreDisjointAndOrdered) {
  const std::string p1 = TenantPrefix(1), p2 = TenantPrefix(2);
  EXPECT_LT(p1, p2);
  EXPECT_EQ(TenantPrefixEnd(1), p2);  // adjacent ids are adjacent spans
  EXPECT_TRUE(KeyInTenantKeyspace(AddTenantPrefix(1, "table/1"), 1));
  EXPECT_FALSE(KeyInTenantKeyspace(AddTenantPrefix(1, "table/1"), 2));
}

TEST(TenantKeysTest, AddStripRoundTrip) {
  const std::string prefixed = AddTenantPrefix(42, "some/key");
  EXPECT_EQ(*DecodeTenantFromKey(prefixed), 42u);
  EXPECT_EQ(*StripTenantPrefix(42, prefixed), "some/key");
  EXPECT_TRUE(StripTenantPrefix(43, prefixed).status().IsUnauthorized());
}

// ---------------------------------------------------------------------------
// KVCluster end-to-end
// ---------------------------------------------------------------------------

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() {
    KVClusterOptions opts;
    opts.num_nodes = 3;
    opts.replication_factor = 3;
    cluster_ = std::make_unique<KVCluster>(opts);
    VELOCE_CHECK_OK(cluster_->CreateTenantKeyspace(10));
    VELOCE_CHECK_OK(cluster_->CreateTenantKeyspace(11));
  }

  BatchRequest Req(TenantId tenant) {
    BatchRequest req;
    req.tenant_id = tenant;
    req.ts = cluster_->Now();
    return req;
  }

  std::string Key(TenantId tenant, const std::string& k) {
    return AddTenantPrefix(tenant, k);
  }

  std::unique_ptr<KVCluster> cluster_;
};

TEST_F(ClusterTest, PutThenGet) {
  BatchRequest put = Req(10);
  put.AddPut(Key(10, "row1"), "hello");
  ASSERT_TRUE(cluster_->Send(put).ok());

  BatchRequest get = Req(10);
  get.AddGet(Key(10, "row1"));
  auto resp = *cluster_->Send(get);
  ASSERT_TRUE(resp.responses[0].found);
  EXPECT_EQ(resp.responses[0].value, "hello");
}

TEST_F(ClusterTest, TenantCannotTouchForeignKeyspace) {
  BatchRequest put = Req(10);
  put.AddPut(Key(11, "row1"), "stolen");
  EXPECT_TRUE(cluster_->Send(put).status().IsUnauthorized());

  BatchRequest get = Req(10);
  get.AddGet(Key(11, "row1"));
  EXPECT_TRUE(cluster_->Send(get).status().IsUnauthorized());

  BatchRequest scan = Req(10);
  scan.AddScan(TenantPrefix(10), TenantPrefixEnd(11), 0);
  EXPECT_TRUE(cluster_->Send(scan).status().IsUnauthorized());
}

TEST_F(ClusterTest, SystemTenantSeesEverything) {
  BatchRequest put = Req(10);
  put.AddPut(Key(10, "row1"), "data");
  ASSERT_TRUE(cluster_->Send(put).ok());

  BatchRequest get = Req(kSystemTenantId);
  get.AddGet(Key(10, "row1"));
  auto resp = *cluster_->Send(get);
  EXPECT_TRUE(resp.responses[0].found);
}

TEST_F(ClusterTest, TenantsAreIsolatedLogically) {
  BatchRequest p10 = Req(10);
  p10.AddPut(Key(10, "same"), "ten");
  ASSERT_TRUE(cluster_->Send(p10).ok());
  BatchRequest p11 = Req(11);
  p11.AddPut(Key(11, "same"), "eleven");
  ASSERT_TRUE(cluster_->Send(p11).ok());

  BatchRequest g10 = Req(10);
  g10.AddGet(Key(10, "same"));
  EXPECT_EQ((*cluster_->Send(g10)).responses[0].value, "ten");
  BatchRequest g11 = Req(11);
  g11.AddGet(Key(11, "same"));
  EXPECT_EQ((*cluster_->Send(g11)).responses[0].value, "eleven");
}

TEST_F(ClusterTest, RangesNeverSpanTenants) {
  for (const auto& desc : cluster_->Ranges()) {
    if (desc.tenant_id == 0) continue;
    EXPECT_GE(Slice(desc.start_key), Slice(TenantPrefix(desc.tenant_id)));
    EXPECT_LE(Slice(desc.end_key), Slice(TenantPrefixEnd(desc.tenant_id)));
  }
  // Tenant creation produced at least one dedicated range per tenant.
  int tenant10 = 0, tenant11 = 0;
  for (const auto& desc : cluster_->Ranges()) {
    if (desc.tenant_id == 10) ++tenant10;
    if (desc.tenant_id == 11) ++tenant11;
  }
  EXPECT_GE(tenant10, 1);
  EXPECT_GE(tenant11, 1);
}

TEST_F(ClusterTest, ScanWithinTenant) {
  for (int i = 0; i < 20; ++i) {
    BatchRequest put = Req(10);
    char name[16];
    std::snprintf(name, sizeof(name), "row%02d", i);
    put.AddPut(Key(10, name), "v" + std::to_string(i));
    ASSERT_TRUE(cluster_->Send(put).ok());
  }
  BatchRequest scan = Req(10);
  scan.AddScan(Key(10, "row05"), Key(10, "row15"), 0);
  auto resp = *cluster_->Send(scan);
  EXPECT_EQ(resp.responses[0].rows.size(), 10u);
  EXPECT_EQ(resp.responses[0].rows[0].value, "v5");
}

TEST_F(ClusterTest, ScanAcrossRangeSplits) {
  for (int i = 0; i < 30; ++i) {
    BatchRequest put = Req(10);
    char name[16];
    std::snprintf(name, sizeof(name), "row%02d", i);
    put.AddPut(Key(10, name), "v");
    ASSERT_TRUE(cluster_->Send(put).ok());
  }
  ASSERT_TRUE(cluster_->SplitRange(Key(10, "row10")).ok());
  ASSERT_TRUE(cluster_->SplitRange(Key(10, "row20")).ok());
  BatchRequest scan = Req(10);
  scan.AddScan(Key(10, "row"), Key(10, "row99"), 0);
  auto resp = *cluster_->Send(scan);
  EXPECT_EQ(resp.responses[0].rows.size(), 30u);
}

TEST_F(ClusterTest, ScanLimitAcrossRanges) {
  for (int i = 0; i < 30; ++i) {
    BatchRequest put = Req(10);
    char name[16];
    std::snprintf(name, sizeof(name), "row%02d", i);
    put.AddPut(Key(10, name), "v");
    ASSERT_TRUE(cluster_->Send(put).ok());
  }
  ASSERT_TRUE(cluster_->SplitRange(Key(10, "row10")).ok());
  BatchRequest scan = Req(10);
  scan.AddScan(Key(10, "row"), Key(10, "row99"), 15);
  auto resp = *cluster_->Send(scan);
  EXPECT_EQ(resp.responses[0].rows.size(), 15u);
  EXPECT_FALSE(resp.responses[0].resume_key.empty());
}

TEST_F(ClusterTest, ReplicationReachesAllNodes) {
  BatchRequest put = Req(10);
  put.AddPut(Key(10, "replicated"), "value");
  ASSERT_TRUE(cluster_->Send(put).ok());
  // With RF=3 on 3 nodes, every engine holds the data.
  for (size_t n = 0; n < cluster_->num_nodes(); ++n) {
    auto res = *MvccGet(cluster_->node(static_cast<NodeId>(n))->engine(),
                        Key(10, "replicated"), Timestamp::Max().Prev());
    EXPECT_TRUE(res.value.has_value()) << "node " << n;
  }
}

TEST_F(ClusterTest, LosesQuorumWhenMajorityDown) {
  cluster_->SetNodeLive(1, false);
  cluster_->SetNodeLive(2, false);
  BatchRequest put = Req(10);
  put.AddPut(Key(10, "k"), "v");
  EXPECT_EQ(cluster_->Send(put).status().code(), Code::kUnavailable);
}

TEST_F(ClusterTest, LeaseShedsToLiveReplica) {
  const auto ranges = cluster_->Ranges();
  cluster_->SetNodeLive(0, false);
  for (const auto& desc : cluster_->Ranges()) {
    EXPECT_NE(desc.leaseholder, 0u) << "range " << desc.range_id;
  }
  // Still serving with one node down (quorum of 2/3).
  BatchRequest put = Req(10);
  put.AddPut(Key(10, "after-failure"), "v");
  EXPECT_TRUE(cluster_->Send(put).ok());
  (void)ranges;
}

TEST_F(ClusterTest, BalanceLeasesSpreadsLoad) {
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(cluster_->SplitRange(Key(10, "split" + std::to_string(i))).ok());
  }
  cluster_->BalanceLeases();
  int with_leases = 0;
  for (size_t n = 0; n < cluster_->num_nodes(); ++n) {
    if (cluster_->CountLeases(static_cast<NodeId>(n)) > 0) ++with_leases;
  }
  EXPECT_EQ(with_leases, 3);
}

TEST_F(ClusterTest, SizeTriggeredSplits) {
  KVClusterOptions opts;
  opts.num_nodes = 3;
  opts.range_split_bytes = 8 << 10;
  KVCluster small(opts);
  ASSERT_TRUE(small.CreateTenantKeyspace(10).ok());
  Random rnd(3);
  for (int i = 0; i < 200; ++i) {
    BatchRequest put;
    put.tenant_id = 10;
    put.ts = small.Now();
    put.AddPut(AddTenantPrefix(10, "key" + std::to_string(i)), rnd.String(200));
    ASSERT_TRUE(small.Send(put).ok());
  }
  const int splits = *small.MaybeSplitRanges();
  EXPECT_GT(splits, 0);
  // Data remains intact after splits.
  BatchRequest scan;
  scan.tenant_id = 10;
  scan.ts = small.Now();
  scan.AddScan(TenantPrefix(10), TenantPrefixEnd(10), 0);
  auto resp = *small.Send(scan);
  EXPECT_EQ(resp.responses[0].rows.size(), 200u);
}

TEST_F(ClusterTest, NodeStatsCountBatches) {
  BatchRequest put = Req(10);
  put.AddPut(Key(10, "a"), "1");
  put.AddPut(Key(10, "b"), "2");
  ASSERT_TRUE(cluster_->Send(put).ok());
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "a"));
  ASSERT_TRUE(cluster_->Send(get).ok());

  uint64_t write_batches = 0, write_requests = 0, read_batches = 0;
  for (size_t n = 0; n < cluster_->num_nodes(); ++n) {
    const auto& s = cluster_->node(static_cast<NodeId>(n))->stats();
    write_batches += s.write_batches;
    write_requests += s.write_requests;
    read_batches += s.read_batches;
  }
  EXPECT_EQ(write_batches, 1u);
  EXPECT_EQ(write_requests, 2u);
  EXPECT_EQ(read_batches, 1u);
}

// ---------------------------------------------------------------------------
// Transactions end-to-end
// ---------------------------------------------------------------------------

// The KV write rule, for every kind of write: whatever timestamp a write
// asks for, it lands above a read already served on its key, above the
// closed timestamp, and above the key's newest committed version.
TEST_F(ClusterTest, EveryWriteKindLandsAboveReadsClosedTsAndNewerVersions) {
  enum class Kind { kPut, kIntentBatch, kOnePhase };
  enum class Bound { kRead, kClosed, kNewerVersion };
  const char* kind_names[] = {"put", "intent batch", "1pc"};
  const char* bound_names[] = {"prior read", "closed timestamp", "newer version"};
  int n = 0;
  for (Kind kind : {Kind::kPut, Kind::kIntentBatch, Kind::kOnePhase}) {
    for (Bound bound : {Bound::kRead, Bound::kClosed, Bound::kNewerVersion}) {
      SCOPED_TRACE(std::string(kind_names[static_cast<int>(kind)]) + " above " +
                   bound_names[static_cast<int>(bound)]);
      const std::string key = Key(10, "rule-" + std::to_string(n++));
      // Begun before the bound is set, so the txn's own timestamp is below it.
      const TxnRecord txn = cluster_->BeginTxn();
      Timestamp bound_ts;
      switch (bound) {
        case Bound::kRead: {
          BatchRequest get = Req(10);
          get.AddGet(key);
          ASSERT_TRUE(cluster_->Send(get).ok());
          bound_ts = get.ts;
          break;
        }
        case Bound::kClosed:
          bound_ts = cluster_->ClosedTimestamp();
          break;
        case Bound::kNewerVersion: {
          BatchRequest put = Req(10);
          put.AddPut(key, "newer");
          ASSERT_TRUE(cluster_->Send(put).ok());
          bound_ts = put.ts;
          break;
        }
      }
      // Every write asks for a timestamp below all three bounds.
      BatchRequest write;
      write.tenant_id = 10;
      write.ts = Timestamp{cluster_->ClosedTimestamp().wall - kSecond, 0};
      write.AddPut(key, "w");
      Timestamp landed;
      switch (kind) {
        case Kind::kPut: {
          auto resp = cluster_->Send(write);
          ASSERT_TRUE(resp.ok()) << resp.status().ToString();
          landed = resp->bumped_write_ts;
          break;
        }
        case Kind::kIntentBatch: {
          write.txn_id = txn.id;
          write.AddPut(key + "-2", "w");
          auto resp = cluster_->Send(write);
          ASSERT_TRUE(resp.ok()) << resp.status().ToString();
          landed = resp->bumped_write_ts;
          auto intent = *MvccGetIntent(cluster_->node(0)->engine(), key);
          ASSERT_TRUE(intent.has_value());
          EXPECT_EQ(intent->ts, landed);
          ASSERT_TRUE(cluster_->AbortTxn(txn.id, {key, key + "-2"}).ok());
          break;
        }
        case Kind::kOnePhase: {
          write.txn_id = txn.id;
          write.commit_txn = true;
          write.can_forward_ts = true;
          auto resp = cluster_->Send(write);
          ASSERT_TRUE(resp.ok()) << resp.status().ToString();
          landed = resp->commit_ts;
          break;
        }
      }
      EXPECT_GT(landed, bound_ts);
    }
  }
}

// A split keeps its reads: A reads k, the range splits at k, then an older
// txn writes k. Its write must still land above A's read, so a re-read at
// A's timestamp sees what A saw.
TEST_F(ClusterTest, SplitKeepsReadTimestamps) {
  const std::string k = Key(10, "split-read");
  const TxnRecord older = cluster_->BeginTxn();
  BatchRequest get = Req(10);
  get.AddGet(k);
  auto read = cluster_->Send(get);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_FALSE(read->responses[0].found);
  ASSERT_GT(get.ts, older.read_ts);
  ASSERT_TRUE(cluster_->SplitRange(k).ok());
  ASSERT_EQ(cluster_->LookupRange(k)->start_key, k);

  BatchRequest write;
  write.tenant_id = 10;
  write.ts = older.read_ts;
  write.txn_id = older.id;
  write.commit_txn = true;
  write.can_forward_ts = true;
  write.AddPut(k, "older");
  auto resp = cluster_->Send(write);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();

  BatchRequest reread;
  reread.tenant_id = 10;
  reread.ts = get.ts;
  reread.AddGet(k);
  auto again = cluster_->Send(reread);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(again->responses[0].found) << "value " << again->responses[0].value;
}

class TransactionTest : public ClusterTest {
 protected:
  double Retries() { return cluster_->metrics()->Value("veloce_txn_retries_total"); }
  double Commits(const std::string& path) {
    return cluster_->metrics()->Value("veloce_txn_commits_total", {{"path", path}});
  }
};

TEST_F(TransactionTest, CommitMakesWritesVisible) {
  {
    Transaction txn(cluster_.get(), 10);
    ASSERT_TRUE(txn.Put(Key(10, "t1"), "v1").ok());
    ASSERT_TRUE(txn.Put(Key(10, "t2"), "v2").ok());
    // Not yet visible to others.
    BatchRequest get = Req(10);
    get.AddGet(Key(10, "t1"));
    auto resp = *cluster_->Send(get);
    EXPECT_FALSE(resp.responses[0].found);
    ASSERT_TRUE(txn.Commit().ok());
  }
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "t1"));
  auto resp = *cluster_->Send(get);
  EXPECT_TRUE(resp.responses[0].found);
}

TEST_F(TransactionTest, RollbackDiscardsWrites) {
  {
    Transaction txn(cluster_.get(), 10);
    ASSERT_TRUE(txn.Put(Key(10, "gone"), "v").ok());
    ASSERT_TRUE(txn.Rollback().ok());
  }
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "gone"));
  EXPECT_FALSE((*cluster_->Send(get)).responses[0].found);
}

TEST_F(TransactionTest, ReadYourOwnWrites) {
  Transaction txn(cluster_.get(), 10);
  ASSERT_TRUE(txn.Put(Key(10, "k"), "mine").ok());
  std::optional<std::string> value;
  ASSERT_TRUE(txn.Get(Key(10, "k"), &value).ok());
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "mine");
  ASSERT_TRUE(txn.Rollback().ok());
}

TEST_F(TransactionTest, DestructorRollsBack) {
  {
    Transaction txn(cluster_.get(), 10);
    ASSERT_TRUE(txn.Put(Key(10, "leak"), "v").ok());
    // No commit: destructor must clean up the intent.
  }
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "leak"));
  EXPECT_FALSE((*cluster_->Send(get)).responses[0].found);
  // And the intent is gone from the engines.
  auto intent = *MvccGetIntent(cluster_->node(0)->engine(), Key(10, "leak"));
  EXPECT_FALSE(intent.has_value());
}

TEST_F(TransactionTest, WriteWriteConflictBlocksSecondWriter) {
  Transaction t1(cluster_.get(), 10);
  ASSERT_TRUE(t1.Put(Key(10, "contended"), "t1").ok());
  // Buffered writes conflict only once flushed as intents.
  ASSERT_TRUE(t1.Flush().ok());
  Transaction t2(cluster_.get(), 10);
  // Equal priority, healthy t1: t2's flushed write must fail with an
  // intent error.
  ASSERT_TRUE(t2.Put(Key(10, "contended"), "t2").ok());
  EXPECT_TRUE(t2.Flush().IsWriteIntentError());
  ASSERT_TRUE(t1.Commit().ok());
  // After t1 finishes, t2 can proceed.
  ASSERT_TRUE(t2.Put(Key(10, "contended"), "t2").ok());
  ASSERT_TRUE(t2.Commit().ok());
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "contended"));
  EXPECT_EQ((*cluster_->Send(get)).responses[0].value, "t2");
}

TEST_F(TransactionTest, HighPriorityWriterAbortsLowPriority) {
  Transaction low(cluster_.get(), 10, /*priority=*/0);
  ASSERT_TRUE(low.Put(Key(10, "k"), "low").ok());
  ASSERT_TRUE(low.Flush().ok());
  Transaction high(cluster_.get(), 10, /*priority=*/100);
  ASSERT_TRUE(high.Put(Key(10, "k"), "high").ok());
  ASSERT_TRUE(high.Flush().ok());
  ASSERT_TRUE(high.Commit().ok());
  EXPECT_EQ(low.Commit().code(), Code::kTransactionAborted);
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "k"));
  EXPECT_EQ((*cluster_->Send(get)).responses[0].value, "high");
}

TEST_F(TransactionTest, ReaderPushesWriterTimestamp) {
  Transaction writer(cluster_.get(), 10);
  ASSERT_TRUE(writer.Put(Key(10, "k"), "pending").ok());
  // A non-transactional read at a later timestamp pushes the writer's
  // timestamp instead of blocking, and sees the key as absent.
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "k"));
  auto resp = *cluster_->Send(get);
  EXPECT_FALSE(resp.responses[0].found);
  // The writer can still commit (at a pushed timestamp).
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_GT(writer.commit_ts(), get.ts);
}

TEST_F(TransactionTest, WriteBelowReadTimestampGetsBumped) {
  // Someone reads key k at ts T.
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "k"));
  ASSERT_TRUE(cluster_->Send(get).ok());
  // A later non-txn write at a timestamp <= T must commit above T.
  BatchRequest put;
  put.tenant_id = 10;
  put.ts = get.ts.Prev();
  put.AddPut(Key(10, "k"), "v");
  auto resp = *cluster_->Send(put);
  EXPECT_GT(resp.bumped_write_ts, get.ts);
}

TEST_F(TransactionTest, RefreshAllowsCommitWhenReadSetUnchanged) {
  Transaction txn(cluster_.get(), 10);
  std::optional<std::string> value;
  ASSERT_TRUE(txn.Get(Key(10, "read-key"), &value).ok());
  // Force a push: another client reads txn's write target above read_ts.
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "write-key"));
  ASSERT_TRUE(cluster_->Send(get).ok());
  ASSERT_TRUE(txn.Put(Key(10, "write-key"), "v").ok());
  // Nothing in the read set changed: refresh passes and the commit lands
  // above the timestamp the txn started reading at.
  const Timestamp initial_read_ts = txn.read_ts();
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_GT(txn.commit_ts(), initial_read_ts);
}

TEST_F(TransactionTest, RefreshFailsWhenReadSetChanged) {
  Transaction txn(cluster_.get(), 10);
  std::optional<std::string> value;
  ASSERT_TRUE(txn.Get(Key(10, "watched"), &value).ok());
  // Concurrent writer commits to the watched key above txn.read_ts.
  BatchRequest put = Req(10);
  put.AddPut(Key(10, "watched"), "changed");
  ASSERT_TRUE(cluster_->Send(put).ok());
  // Force txn's write timestamp above read_ts via a read of its target.
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "target"));
  ASSERT_TRUE(cluster_->Send(get).ok());
  ASSERT_TRUE(txn.Put(Key(10, "target"), "v").ok());
  EXPECT_EQ(txn.Commit().code(), Code::kTransactionRetry);
}

// Two read-modify-write txns on one counter, interleaved so that the
// second writer asks for a timestamp below the first one's committed
// version: A and B both read k; a plain read of k2 far above them raises
// k2's timestamp cache, so B, writing k and k2, commits above that read;
// then A writes k. Landing A's write below B's version would let A commit
// an increment of the value B already replaced (both 0 -> 1). It must land
// above it instead, so A's read refresh sees B's write and A retries.
TEST_F(TransactionTest, LostUpdateIsRetriedNotCommitted) {
  for (const bool classic : {false, true}) {
    SCOPED_TRACE(classic ? "classic txns" : "default txns");
    const TxnOptions opts = classic ? TxnOptions::Classic() : TxnOptions();
    const std::string k = Key(10, classic ? "lost-classic" : "lost-default");
    const std::string k2 = k + "-other";
    BatchRequest init = Req(10);
    init.AddPut(k, "0");
    ASSERT_TRUE(cluster_->Send(init).ok());

    Transaction a(cluster_.get(), 10, 0, nullptr, opts);
    Transaction b(cluster_.get(), 10, 0, nullptr, opts);
    std::optional<std::string> value;
    ASSERT_TRUE(a.Get(k, &value).ok());
    ASSERT_EQ(value, "0");
    ASSERT_TRUE(b.Get(k, &value).ok());
    ASSERT_EQ(value, "0");

    BatchRequest high = Req(10);
    high.ts = Timestamp{cluster_->Now().wall + 10 * kSecond, 0};
    high.AddGet(k2);
    ASSERT_TRUE(cluster_->Send(high).ok());

    ASSERT_TRUE(b.Put(k, "1").ok());
    ASSERT_TRUE(b.Put(k2, "b").ok());
    ASSERT_TRUE(b.Commit().ok());
    ASSERT_GT(b.commit_ts(), high.ts);

    ASSERT_TRUE(a.Put(k, "1").ok());
    EXPECT_EQ(a.Commit().code(), Code::kTransactionRetry);

    BatchRequest get = Req(10);
    get.AddGet(k);
    auto resp = cluster_->Send(get);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->responses[0].value, "1");
  }
}

// A txn's own read never pushes its own write: a read-modify-write commits
// at its read timestamp in one 1PC attempt, with no refresh and no retry.
TEST_F(TransactionTest, ReadModifyWriteCommitsInOneOnePhaseAttempt) {
  const std::string k = Key(10, "rmw-1pc");
  BatchRequest init = Req(10);
  init.AddPut(k, "1");
  ASSERT_TRUE(cluster_->Send(init).ok());
  const double retries = Retries();
  const double one_pc = Commits("1pc");

  Transaction txn(cluster_.get(), 10);
  const Timestamp read_ts = txn.read_ts();
  std::optional<std::string> value;
  ASSERT_TRUE(txn.Get(k, &value).ok());
  ASSERT_EQ(value, "1");
  ASSERT_TRUE(txn.Put(k, "2").ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(Commits("1pc"), one_pc + 1);
  EXPECT_EQ(Retries(), retries);
  EXPECT_EQ(txn.batches_sent(), 2u);  // the read and one commit attempt
  EXPECT_EQ(txn.commit_ts(), read_ts);
}

// The same on the parallel-commit path: the flushed intent lands at the
// read timestamp, so nothing is refreshed before staging.
TEST_F(TransactionTest, ReadModifyWriteStagesAtItsReadTimestamp) {
  const std::string k = Key(10, "rmw-parallel");
  BatchRequest init = Req(10);
  init.AddPut(k, "1");
  ASSERT_TRUE(cluster_->Send(init).ok());
  const double retries = Retries();
  const double parallel = Commits("parallel");

  Transaction txn(cluster_.get(), 10);
  const Timestamp read_ts = txn.read_ts();
  std::optional<std::string> value;
  ASSERT_TRUE(txn.Get(k, &value).ok());
  ASSERT_EQ(value, "1");
  ASSERT_TRUE(txn.Put(k, "2").ok());
  ASSERT_TRUE(txn.Flush().ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(Commits("parallel"), parallel + 1);
  EXPECT_EQ(Retries(), retries);
  EXPECT_EQ(txn.read_ts(), read_ts);  // no refresh
  EXPECT_EQ(txn.commit_ts(), read_ts);
}

// Refresh gap 1: a refresh is a read. A reads k, is pushed, and refreshes k
// up to its new timestamp. B, begun between A's read and that timestamp,
// then writes k blindly. B's write must land above the refreshed read, not
// merely above A's original one; otherwise A's retried 1PC lands above B's
// version without having seen it, and B's write is lost.
TEST_F(TransactionTest, RefreshedReadFencesOlderWriters) {
  const std::string k = Key(10, "refreshed");
  const std::string k2 = k + "-other";
  BatchRequest init = Req(10);
  init.AddPut(k, "0");
  ASSERT_TRUE(cluster_->Send(init).ok());

  std::unique_ptr<Transaction> b;
  int one_pc_attempts = 0;
  Transaction::Sender sender = [&](const BatchRequest& req) -> StatusOr<BatchResponse> {
    if (req.commit_txn && ++one_pc_attempts == 2) {
      // A's first attempt was rejected and its read of k refreshed.
      EXPECT_TRUE(b->Put(k, "b").ok());
      EXPECT_TRUE(b->Commit().ok());
    }
    return cluster_->Send(req);
  };
  Transaction a(cluster_.get(), 10, 0, sender);
  std::optional<std::string> value;
  ASSERT_TRUE(a.Get(k, &value).ok());
  ASSERT_EQ(value, "0");
  b = std::make_unique<Transaction>(cluster_.get(), 10);
  ASSERT_GT(b->read_ts(), a.read_ts());

  // A plain read far above everything pushes A's write of k2.
  BatchRequest high = Req(10);
  high.ts = Timestamp{cluster_->Now().wall + 10 * kSecond, 0};
  high.AddGet(k2);
  ASSERT_TRUE(cluster_->Send(high).ok());

  ASSERT_TRUE(a.Put(k, "1").ok());
  ASSERT_TRUE(a.Put(k2, "a").ok());
  EXPECT_EQ(a.Commit().code(), Code::kTransactionRetry);
  ASSERT_GE(one_pc_attempts, 2);
  ASSERT_TRUE(b->finalized());
  EXPECT_GT(b->commit_ts(), high.ts);

  BatchRequest get = Req(10);
  get.AddGet(k);
  auto resp = cluster_->Send(get);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->responses[0].value, "b");
}

// Refresh gap 2: a refresh must not pass over another txn's intent at or
// below its target. B's intent on k sits above A's read, and B is STAGING
// with every write present, so it is committed at its staged timestamp
// already. A, pushed above that timestamp, must not commit as if k were
// unchanged.
TEST_F(TransactionTest, RefreshFailsOnForeignIntentBelowTarget) {
  const std::string k = Key(10, "staged-k");
  const std::string k2 = k + "-other";
  BatchRequest init = Req(10);
  init.AddPut(k, "0");
  ASSERT_TRUE(cluster_->Send(init).ok());

  Transaction a(cluster_.get(), 10);
  std::optional<std::string> value;
  ASSERT_TRUE(a.Get(k, &value).ok());
  ASSERT_EQ(value, "0");

  const TxnRecord b = cluster_->BeginTxn();
  BatchRequest intent;
  intent.tenant_id = 10;
  intent.ts = b.read_ts;
  intent.txn_id = b.id;
  intent.txn_priority = b.priority;
  intent.AddPut(k, "b");
  ASSERT_TRUE(cluster_->Send(intent).ok());
  Timestamp staged;
  ASSERT_TRUE(cluster_->StageTxn(b.id, {k}, &staged).ok());

  BatchRequest high = Req(10);
  high.ts = Timestamp{cluster_->Now().wall + 10 * kSecond, 0};
  high.AddGet(k2);
  ASSERT_TRUE(cluster_->Send(high).ok());

  ASSERT_TRUE(a.Put(k2, "a").ok());
  EXPECT_EQ(a.Commit().code(), Code::kTransactionRetry);

  // B's commit stands (recovered by this read's push).
  BatchRequest get = Req(10);
  get.AddGet(k);
  auto resp = cluster_->Send(get);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->responses[0].value, "b");
}

TEST_F(TransactionTest, SerializabilityUnderConcurrentCounters) {
  // Two txns increment a counter; with W-W conflict handling one must
  // observe the other or fail; the final value must be exactly 2.
  BatchRequest init = Req(10);
  init.AddPut(Key(10, "counter"), "0");
  ASSERT_TRUE(cluster_->Send(init).ok());

  int committed = 0;
  for (int attempt = 0; attempt < 2; ++attempt) {
    Transaction txn(cluster_.get(), 10);
    std::optional<std::string> value;
    ASSERT_TRUE(txn.Get(Key(10, "counter"), &value).ok());
    const int cur = std::stoi(value.value_or("0"));
    ASSERT_TRUE(txn.Put(Key(10, "counter"), std::to_string(cur + 1)).ok());
    if (txn.Commit().ok()) ++committed;
  }
  ASSERT_EQ(committed, 2);
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "counter"));
  EXPECT_EQ((*cluster_->Send(get)).responses[0].value, "2");
}

}  // namespace
}  // namespace veloce::kv
