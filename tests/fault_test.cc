#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "kv/cluster.h"
#include "kv/keys.h"
#include "kv/linearizability.h"
#include "kv/transaction.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/faulty_mesh.h"
#include "sim/sim_executor.h"
#include "storage/background.h"
#include "storage/engine.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/wal.h"
#include "storage/write_batch.h"

namespace veloce::storage {
namespace {

// ---------------------------------------------------------------------------
// FaultInjectionEnv: programmable schedule
// ---------------------------------------------------------------------------

Status AppendAndSync(Env* env, const std::string& fname, const std::string& data,
                     bool sync = true) {
  std::unique_ptr<WritableFile> file;
  VELOCE_RETURN_IF_ERROR(env->NewWritableFile(fname, &file));
  VELOCE_RETURN_IF_ERROR(file->Append(data));
  if (sync) VELOCE_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

TEST(FaultEnvTest, RuleSkipAndCountWindow) {
  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get());
  FaultRule rule;
  rule.op = FaultOp::kAppend;
  rule.skip = 2;   // first two appends pass
  rule.count = 2;  // then exactly two fail
  fault.AddRule(rule);

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(fault.NewWritableFile("f", &file).ok());
  EXPECT_TRUE(file->Append("a").ok());
  EXPECT_TRUE(file->Append("b").ok());
  EXPECT_EQ(file->Append("c").code(), Code::kIOError);
  EXPECT_EQ(file->Append("d").code(), Code::kIOError);
  EXPECT_TRUE(file->Append("e").ok());
  EXPECT_EQ(fault.injected(FaultOp::kAppend), 2u);
  EXPECT_EQ(fault.injected_faults(), 2u);
}

TEST(FaultEnvTest, RulesFilterByPathSubstring) {
  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get());
  FaultRule rule;
  rule.op = FaultOp::kSync;
  rule.path_substr = ".sst";
  rule.count = -1;  // forever
  fault.AddRule(rule);

  EXPECT_TRUE(AppendAndSync(&fault, "db/wal-000001.log", "x").ok());
  EXPECT_EQ(AppendAndSync(&fault, "db/000002.sst", "x").code(), Code::kIOError);
}

TEST(FaultEnvTest, RemoveAndClearRules) {
  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get());
  FaultRule rule;
  rule.op = FaultOp::kAppend;
  rule.count = -1;
  const int id = fault.AddRule(rule);
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(fault.NewWritableFile("f", &file).ok());
  EXPECT_FALSE(file->Append("a").ok());
  fault.RemoveRule(id);
  EXPECT_TRUE(file->Append("b").ok());
  fault.AddRule(rule);
  fault.ClearRules();
  EXPECT_TRUE(file->Append("c").ok());
}

TEST(FaultEnvTest, DownDeviceIsTransientlyUnavailable) {
  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get());
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(fault.NewWritableFile("f", &file).ok());
  ASSERT_TRUE(file->Append("pre").ok());

  fault.SetDown(true);
  EXPECT_TRUE(fault.down());
  EXPECT_EQ(file->Append("x").code(), Code::kUnavailable);
  EXPECT_EQ(file->Sync().code(), Code::kUnavailable);
  EXPECT_TRUE(Engine::IsTransientError(file->Append("x")));

  fault.SetDown(false);
  EXPECT_TRUE(file->Append("post").ok());
  EXPECT_TRUE(file->Sync().ok());
  std::string out;
  ASSERT_TRUE(fault.ReadFileToString("f", &out).ok());
  EXPECT_EQ(out, "prepost");
}

TEST(FaultEnvTest, CrashDropsUnsyncedBytes) {
  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get());
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(fault.NewWritableFile("f", &file).ok());
  ASSERT_TRUE(file->Append("durable").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append("-volatile").ok());
  file.reset();

  fault.CrashAndDropUnsynced(/*torn_tail=*/false);
  std::string out;
  ASSERT_TRUE(fault.ReadFileToString("f", &out).ok());
  EXPECT_EQ(out, "durable");
  EXPECT_EQ(fault.crash_count(), 1u);
}

TEST(FaultEnvTest, CrashTornTailKeepsStrictPrefixOfUnsynced) {
  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get(), /*seed=*/42);
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(fault.NewWritableFile("f", &file).ok());
  ASSERT_TRUE(file->Append("sync").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append(std::string(100, 'u')).ok());
  file.reset();

  fault.CrashAndDropUnsynced(/*torn_tail=*/true);
  std::string out;
  ASSERT_TRUE(fault.ReadFileToString("f", &out).ok());
  // The synced prefix always survives; at most a strict prefix of the
  // unsynced tail does (a full tail would mean nothing was torn).
  ASSERT_GE(out.size(), 4u);
  EXPECT_LT(out.size(), 104u);
  EXPECT_EQ(out.substr(0, 4), "sync");
}

TEST(FaultEnvTest, RenameMovesShadowStateAndCanFail) {
  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get());
  ASSERT_TRUE(AppendAndSync(&fault, "a", "payload").ok());
  ASSERT_TRUE(fault.RenameFile("a", "b").ok());
  EXPECT_FALSE(fault.FileExists("a"));
  std::string out;
  ASSERT_TRUE(fault.ReadFileToString("b", &out).ok());
  EXPECT_EQ(out, "payload");
  // The renamed file keeps its synced prefix across a crash.
  fault.CrashAndDropUnsynced(/*torn_tail=*/false);
  ASSERT_TRUE(fault.ReadFileToString("b", &out).ok());
  EXPECT_EQ(out, "payload");

  FaultRule rule;
  rule.op = FaultOp::kRename;
  fault.AddRule(rule);
  EXPECT_EQ(fault.RenameFile("b", "c").code(), Code::kIOError);
  EXPECT_TRUE(fault.FileExists("b"));
}

TEST(FaultEnvTest, BitFlipCorruptsExactlyOneBit) {
  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get(), /*seed=*/7);
  const std::string original(64, '\0');
  ASSERT_TRUE(AppendAndSync(&fault, "f", original).ok());

  FaultRule rule;
  rule.op = FaultOp::kRead;
  rule.bit_flip = true;
  fault.AddRule(rule);

  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(fault.NewRandomAccessFile("f", &file).ok());
  std::string out;
  ASSERT_TRUE(file->Read(0, 64, &out).ok());
  ASSERT_EQ(out.size(), original.size());
  int flipped_bits = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    unsigned char diff = static_cast<unsigned char>(out[i] ^ original[i]);
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(fault.injected(FaultOp::kRead), 1u);

  // Only the returned buffer was corrupted, not the file itself.
  ASSERT_TRUE(file->Read(0, 64, &out).ok());
  EXPECT_EQ(out, original);
}

TEST(FaultEnvTest, ExportsInjectedFaultCounters) {
  obs::MetricsRegistry metrics;
  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get(), 1, &metrics);
  FaultRule rule;
  rule.op = FaultOp::kAppend;
  fault.AddRule(rule);
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(fault.NewWritableFile("f", &file).ok());
  EXPECT_FALSE(file->Append("x").ok());
  EXPECT_EQ(metrics.Value("veloce_storage_injected_faults_total",
                          {{"kind", "append"}}),
            1.0);
}

// ---------------------------------------------------------------------------
// WAL replay: torn tail vs mid-log corruption
// ---------------------------------------------------------------------------

std::string BuildLog(Env* env, const std::vector<std::string>& records) {
  std::unique_ptr<WritableFile> file;
  VELOCE_CHECK_OK(env->NewWritableFile("log", &file));
  LogWriter writer(std::move(file));
  for (const auto& r : records) VELOCE_CHECK_OK(writer.AddRecord(r));
  std::string contents;
  VELOCE_CHECK_OK(env->ReadFileToString("log", &contents));
  return contents;
}

TEST(WalFaultTest, TruncatedTailIsDroppedNotCorrupt) {
  auto env = NewMemEnv();
  std::string contents = BuildLog(env.get(), {"first", "second"});
  contents.resize(contents.size() - 3);  // tear the last record's payload

  LogReader reader(contents);
  std::string payload;
  bool corruption = false;
  ASSERT_TRUE(reader.ReadRecord(&payload, &corruption));
  EXPECT_EQ(payload, "first");
  EXPECT_FALSE(reader.ReadRecord(&payload, &corruption));
  EXPECT_FALSE(corruption);
  EXPECT_TRUE(reader.tail_truncated());
  EXPECT_EQ(reader.records_read(), 1u);
  EXPECT_GT(reader.truncated_bytes(), 0u);
}

TEST(WalFaultTest, PartialHeaderAtEofIsTornTail) {
  auto env = NewMemEnv();
  std::string contents = BuildLog(env.get(), {"first"});
  contents.append("\x01\x02\x03");  // 3 bytes of a never-finished header

  LogReader reader(contents);
  std::string payload;
  bool corruption = false;
  ASSERT_TRUE(reader.ReadRecord(&payload, &corruption));
  EXPECT_FALSE(reader.ReadRecord(&payload, &corruption));
  EXPECT_FALSE(corruption);
  EXPECT_TRUE(reader.tail_truncated());
  EXPECT_EQ(reader.truncated_bytes(), 3u);
}

TEST(WalFaultTest, CrcMismatchAtExactEofIsTornTail) {
  auto env = NewMemEnv();
  std::string contents = BuildLog(env.get(), {"first", "second"});
  contents.back() ^= 0x40;  // damage the final record's last payload byte

  LogReader reader(contents);
  std::string payload;
  bool corruption = false;
  ASSERT_TRUE(reader.ReadRecord(&payload, &corruption));
  EXPECT_FALSE(reader.ReadRecord(&payload, &corruption));
  // A bad CRC on a frame ending exactly at EOF is a torn final write, not
  // mid-log damage.
  EXPECT_FALSE(corruption);
  EXPECT_TRUE(reader.tail_truncated());
}

TEST(WalFaultTest, MidLogCrcMismatchIsHardCorruption) {
  auto env = NewMemEnv();
  std::string contents = BuildLog(env.get(), {"first", "second"});
  contents[9] ^= 0x40;  // damage the FIRST record's payload

  LogReader reader(contents);
  std::string payload;
  bool corruption = false;
  EXPECT_FALSE(reader.ReadRecord(&payload, &corruption));
  EXPECT_TRUE(corruption);
  EXPECT_FALSE(reader.tail_truncated());
  EXPECT_EQ(reader.offset(), 0u) << "failing offset reported";
}

TEST(WalFaultTest, EngineRejectsMidLogCorruptionWithRecordContext) {
  auto env = NewMemEnv();
  EngineOptions opts;
  opts.env = env.get();
  {
    auto engine = *Engine::Open(opts);
    ASSERT_TRUE(engine->Put("a", "1").ok());
    ASSERT_TRUE(engine->Put("b", "2").ok());
  }
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren("veloce-db", &children).ok());
  std::string wal;
  for (const auto& c : children) {
    if (c.find("wal-") != std::string::npos) wal = "veloce-db/" + c;
  }
  ASSERT_FALSE(wal.empty());
  std::string contents;
  ASSERT_TRUE(env->ReadFileToString(wal, &contents).ok());
  contents[9] ^= 0x01;  // first record payload byte
  ASSERT_TRUE(env->DeleteFile(wal).ok());
  ASSERT_TRUE(env->WriteStringToFile(wal, contents).ok());

  auto reopened = Engine::Open(opts);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), Code::kCorruption);
  // The error pinpoints the failing record and offset.
  EXPECT_NE(reopened.status().ToString().find("record #1"), std::string::npos)
      << reopened.status().ToString();
  EXPECT_NE(reopened.status().ToString().find("offset 0"), std::string::npos);
}

TEST(WalFaultTest, EngineTruncatesTornTailAndCountsIt) {
  auto env = NewMemEnv();
  obs::MetricsRegistry metrics;
  EngineOptions opts;
  opts.env = env.get();
  opts.obs.metrics = &metrics;
  {
    auto engine = *Engine::Open(opts);
    ASSERT_TRUE(engine->Put("kept", "v").ok());
    ASSERT_TRUE(engine->Put("torn", "v").ok());
  }
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren("veloce-db", &children).ok());
  std::string wal;
  for (const auto& c : children) {
    if (c.find("wal-") != std::string::npos) wal = "veloce-db/" + c;
  }
  ASSERT_FALSE(wal.empty());
  std::string contents;
  ASSERT_TRUE(env->ReadFileToString(wal, &contents).ok());
  contents.resize(contents.size() - 2);  // tear the final record
  ASSERT_TRUE(env->DeleteFile(wal).ok());
  ASSERT_TRUE(env->WriteStringToFile(wal, contents).ok());

  auto engine = *Engine::Open(opts);
  std::string value;
  ASSERT_TRUE(engine->Get("kept", &value).ok());
  EXPECT_TRUE(engine->Get("torn", &value).IsNotFound());
  EXPECT_GE(metrics.Sum("veloce_storage_wal_truncated_records_total"), 1.0);
}

// ---------------------------------------------------------------------------
// Engine error handling: severity, retries, degraded mode, Resume
// ---------------------------------------------------------------------------

TEST(EngineFaultTest, SeverityClassification) {
  EXPECT_TRUE(Engine::IsTransientError(Status::IOError("flake")));
  EXPECT_TRUE(Engine::IsTransientError(Status::Unavailable("down")));
  EXPECT_FALSE(Engine::IsTransientError(Status::Corruption("bad crc")));
  EXPECT_FALSE(Engine::IsTransientError(Status::NotFound("gone")));
  EXPECT_FALSE(Engine::IsTransientError(Status::OK()));
}

TEST(EngineFaultTest, WalAppendFailureFailsWriteWithoutPoisoningEngine) {
  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get());
  EngineOptions opts;
  opts.env = &fault;
  auto engine = *Engine::Open(opts);
  ASSERT_TRUE(engine->Put("before", "v").ok());

  FaultRule rule;
  rule.op = FaultOp::kAppend;
  rule.path_substr = "wal-";
  fault.AddRule(rule);
  EXPECT_EQ(engine->Put("dropped", "v").code(), Code::kIOError);

  // A transient foreground I/O error is the caller's to retry; the engine
  // itself stays healthy and the next write goes through.
  EXPECT_FALSE(engine->degraded());
  ASSERT_TRUE(engine->Put("after", "v").ok());
  std::string value;
  ASSERT_TRUE(engine->Get("after", &value).ok());
  EXPECT_TRUE(engine->Get("dropped", &value).IsNotFound());
}

/// Engine wired to a FaultInjectionEnv and a deterministic SimExecutor, the
/// harness every degraded-mode test drives.
struct FaultyEngineFixture {
  explicit FaultyEngineFixture(uint64_t seed = 0x5EED) {
    base = NewMemEnv();
    fault = std::make_unique<FaultInjectionEnv>(base.get(), seed);
    executor = std::make_unique<sim::SimExecutor>(&loop);
    opts.env = fault.get();
    opts.memtable_bytes = 1 << 10;
    opts.background_executor = executor.get();
    opts.max_immutable_memtables = 8;  // avoid stall assists mid-fault
    opts.l0_stall_files = 100;
    opts.max_bg_retries = 3;
    opts.obs.metrics = &metrics;
    engine = *Engine::Open(opts);
  }

  // Writes until at least one memtable is sealed (background flush queued).
  void FillUntilRotation() {
    Random rnd(1);
    int i = 0;
    while (engine->NumImmutableMemTables() < 1) {
      ASSERT_TRUE(engine->Put("fill" + std::to_string(i++), rnd.String(128)).ok());
    }
  }

  sim::EventLoop loop;
  obs::MetricsRegistry metrics;
  std::unique_ptr<Env> base;
  std::unique_ptr<FaultInjectionEnv> fault;
  std::unique_ptr<sim::SimExecutor> executor;
  EngineOptions opts;
  std::unique_ptr<Engine> engine;
};

TEST(EngineFaultTest, TransientFlushFailureSelfHealsViaBackoffRetry) {
  FaultyEngineFixture fx;
  FaultRule rule;
  rule.op = FaultOp::kAppend;
  rule.path_substr = ".sst";
  rule.count = 2;  // two transient failures, then the disk heals
  fx.fault->AddRule(rule);

  fx.FillUntilRotation();
  fx.loop.Run();  // flush fails twice, backs off, then succeeds

  EXPECT_FALSE(fx.engine->degraded());
  EXPECT_TRUE(fx.engine->background_error().ok());
  EXPECT_GE(fx.engine->NumFilesAtLevel(0), 1);
  EXPECT_GE(fx.engine->stats().num_flushes, 1u);
  EXPECT_GE(fx.metrics.Sum("veloce_storage_bg_retries_total"), 2.0);
  EXPECT_EQ(fx.metrics.Sum("veloce_storage_degraded_entries_total"), 0.0);
  // Retries were delayed, not immediate: simulated time advanced by at
  // least the base backoff.
  EXPECT_GE(fx.loop.Now(), fx.opts.bg_retry_base_backoff);
}

TEST(EngineFaultTest, ExhaustedRetriesEnterDegradedModeThenResume) {
  FaultyEngineFixture fx;
  FaultRule rule;
  rule.op = FaultOp::kAppend;
  rule.path_substr = ".sst";
  rule.count = -1;  // the disk never heals on its own
  fx.fault->AddRule(rule);

  ASSERT_TRUE(fx.engine->Put("acked", "survives").ok());
  fx.FillUntilRotation();
  fx.loop.Run();  // retries exhaust -> read-only degraded mode

  EXPECT_TRUE(fx.engine->degraded());
  EXPECT_FALSE(fx.engine->background_error().ok());
  EXPECT_EQ(fx.metrics.Sum("veloce_storage_degraded_entries_total"), 1.0);
  EXPECT_EQ(fx.metrics.Sum("veloce_storage_degraded_mode"), 1.0);
  EXPECT_EQ(static_cast<int>(fx.metrics.Sum("veloce_storage_bg_retries_total")),
            fx.opts.max_bg_retries);

  // Reads still work; writes are refused with a transient Unavailable so
  // upper layers fail over instead of treating the data as lost.
  std::string value;
  ASSERT_TRUE(fx.engine->Get("acked", &value).ok());
  EXPECT_EQ(value, "survives");
  const Status write = fx.engine->Put("rejected", "v");
  EXPECT_EQ(write.code(), Code::kUnavailable);
  EXPECT_NE(write.ToString().find("degraded"), std::string::npos);
  EXPECT_EQ(fx.engine->Flush().code(), Code::kUnavailable);

  // Resume with the fault still active fails and stays degraded.
  EXPECT_EQ(fx.engine->Resume().code(), Code::kUnavailable);
  EXPECT_TRUE(fx.engine->degraded());

  // Once the fault clears, Resume re-drives the pending flush and recovers.
  fx.fault->ClearRules();
  ASSERT_TRUE(fx.engine->Resume().ok());
  EXPECT_FALSE(fx.engine->degraded());
  EXPECT_GE(fx.engine->NumFilesAtLevel(0), 1);
  EXPECT_EQ(fx.metrics.Sum("veloce_storage_degraded_exits_total"), 1.0);
  EXPECT_EQ(fx.metrics.Sum("veloce_storage_degraded_mode"), 0.0);
  ASSERT_TRUE(fx.engine->Put("rejected", "now accepted").ok());
  fx.loop.Run();
  ASSERT_TRUE(fx.engine->Get("rejected", &value).ok());
  EXPECT_EQ(value, "now accepted");
}

TEST(EngineFaultTest, HardManifestErrorSkipsRetriesAndDegradesImmediately) {
  FaultyEngineFixture fx;
  FaultRule rule;
  rule.op = FaultOp::kRename;
  rule.path_substr = "MANIFEST";
  rule.count = -1;
  rule.error = Status::Corruption("manifest device torched");
  fx.fault->AddRule(rule);

  fx.FillUntilRotation();
  fx.loop.Run();

  // Corruption is not retryable: no backoff attempts, straight to degraded.
  EXPECT_TRUE(fx.engine->degraded());
  EXPECT_EQ(fx.engine->background_error().code(), Code::kCorruption);
  EXPECT_EQ(fx.metrics.Sum("veloce_storage_bg_retries_total"), 0.0);

  fx.fault->ClearRules();
  ASSERT_TRUE(fx.engine->Resume().ok());
  EXPECT_FALSE(fx.engine->degraded());
}

TEST(EngineFaultTest, TransientCompactionFailureSelfHeals) {
  FaultyEngineFixture fx;
  fx.FillUntilRotation();
  fx.loop.Run();
  ASSERT_GE(fx.engine->NumFilesAtLevel(0), 1);

  // Fail the next .sst write once (it lands on a flush or a compaction
  // output — both take the same retry path), then heal; keep writing until
  // a compaction has run end to end.
  FaultRule rule;
  rule.op = FaultOp::kAppend;
  rule.path_substr = ".sst";
  rule.count = 1;
  fx.fault->AddRule(rule);
  Random rnd(2);
  for (int i = 0; fx.engine->stats().num_compactions < 1; ++i) {
    ASSERT_LT(i, 20000) << "no compaction after 20k writes";
    ASSERT_TRUE(fx.engine->Put("more" + std::to_string(i), rnd.String(128)).ok());
    fx.loop.Run();
  }
  EXPECT_GE(fx.engine->stats().num_compactions, 1u);
  EXPECT_GE(fx.fault->injected(FaultOp::kAppend), 1u);
  EXPECT_FALSE(fx.engine->degraded());
  EXPECT_TRUE(fx.engine->background_error().ok());
}

TEST(EngineFaultTest, ReadBitFlipSurfacesCorruption) {
  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get(), /*seed=*/99);
  EngineOptions opts;
  opts.env = &fault;
  opts.block_cache_bytes = 0;  // force every read through the (faulty) disk
  opts.bloom_filters = false;
  auto engine = *Engine::Open(opts);
  Random rnd(3);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine->Put("key" + std::to_string(i), rnd.String(64)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());

  FaultRule rule;
  rule.op = FaultOp::kRead;
  rule.path_substr = ".sst";
  rule.count = -1;
  rule.bit_flip = true;
  fault.AddRule(rule);

  std::string value;
  const Status s = engine->Get("key7", &value);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kCorruption) << s.ToString();

  // Silent corruption is caught per-read; once the media heals the same
  // key reads fine again (nothing was cached corrupt).
  fault.ClearRules();
  ASSERT_TRUE(engine->Get("key7", &value).ok());
}

// ---------------------------------------------------------------------------
// Chaos harness: seeded randomized crash-point testing
// ---------------------------------------------------------------------------

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::strtoull(v, nullptr, 0);
}

std::string ChaosKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key-%05d", i);
  return buf;
}

std::string ChaosValue(int i) {
  return ChaosKey(i) + "=" + std::string(20 + (i * 7) % 120,
                                         static_cast<char>('a' + i % 26));
}

/// The acked-writes invariant under crash injection: after writing keys
/// 0..n-1 in order, crashing (dropping unsynced bytes, possibly keeping a
/// torn tail), and reopening, the recovered state must equal the first K
/// writes for some K — never a gap, never a corrupt value, and with
/// sync_wal=true, K == n (every acked write was durable).
///
/// Deterministic and shrinkable: every iteration derives from
/// VELOCE_CHAOS_SEED + iteration index; to replay one failing iteration,
/// re-run with VELOCE_CHAOS_SEED=<seed printed in the failure> and
/// VELOCE_CHAOS_ITERS=1.
TEST(FaultChaosTest, CrashRecoveryPreservesAckedPrefix) {
  const uint64_t iters = EnvOr("VELOCE_CHAOS_ITERS", 500);
  const uint64_t base_seed = EnvOr("VELOCE_CHAOS_SEED", 0xC4A05u);

  for (uint64_t iter = 0; iter < iters; ++iter) {
    const uint64_t seed = base_seed + iter;
    SCOPED_TRACE("chaos iteration " + std::to_string(iter) + " seed " +
                 std::to_string(seed));
    Random rnd(seed);
    auto base = NewMemEnv();
    FaultInjectionEnv fault(base.get(), seed);

    EngineOptions opts;
    opts.env = &fault;
    opts.dir = "chaos";
    // Small memtables so flushes, manifest writes, WAL rotations, and
    // compactions all land inside the crash window.
    opts.memtable_bytes = 512 + rnd.Uniform(2048);
    opts.l0_compaction_trigger = 2;
    opts.sync_wal = (iter % 2 == 0);
    opts.block_cache_bytes = 1 << 16;
    // Half the iterations hand background work to a sim executor whose loop
    // never runs, so the crash lands with sealed memtables (and their WALs)
    // still waiting on a flush; the other half use the engine's own inline
    // executor, which flushes and compacts inside each write.
    sim::EventLoop loop;
    sim::SimExecutor unpumped(&loop);
    if (iter % 4 < 2) opts.background_executor = &unpumped;

    // Crash point: after a pseudo-random number of acked writes.
    const int n = 5 + static_cast<int>(rnd.Uniform(45));
    {
      auto engine = *Engine::Open(opts);
      for (int i = 0; i < n; ++i) {
        ASSERT_TRUE(engine->Put(ChaosKey(i), ChaosValue(i)).ok());
      }
    }  // destroy the engine before rewriting its files
    fault.CrashAndDropUnsynced(/*torn_tail=*/rnd.Uniform(2) == 0);

    auto reopened = Engine::Open(opts);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto& engine = *reopened;

    // Find K: the longest recovered prefix.
    int k = 0;
    std::string value;
    for (; k < n; ++k) {
      Status s = engine->Get(ChaosKey(k), &value);
      if (s.IsNotFound()) break;
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ(value, ChaosValue(k)) << "corrupt value for key " << k;
    }
    // Nothing beyond K may survive (writes are ordered through one WAL, so
    // the crash can only drop a suffix).
    for (int i = k; i < n; ++i) {
      EXPECT_TRUE(engine->Get(ChaosKey(i), &value).IsNotFound())
          << "key " << i << " survived but key " << k << " did not";
    }
    if (opts.sync_wal) {
      EXPECT_EQ(k, n) << "sync_wal=true lost acked writes";
    }
    // The recovered engine must accept new writes.
    ASSERT_TRUE(engine->Put("post-crash", "ok").ok());
    ASSERT_TRUE(engine->Get("post-crash", &value).ok());
  }
}

/// The transactional acked-write invariant under fault injection: commit
/// acknowledgements from the pipelined/parallel hot path must imply
/// durability. Transactions stream intent batches through the write
/// pipeline while transient WAL faults fire; Commit() may only acknowledge
/// after proving every pipelined batch landed, so an acked transaction's
/// writes are all visible afterwards and a failed commit leaves nothing
/// behind. Seeded like CrashRecoveryPreservesAckedPrefix above
/// (VELOCE_CHAOS_SEED / VELOCE_CHAOS_ITERS).
TEST(FaultChaosTest, PipelinedTxnsNeverLoseAckedWrites) {
  const uint64_t iters = EnvOr("VELOCE_CHAOS_ITERS", 150);
  const uint64_t base_seed = EnvOr("VELOCE_CHAOS_SEED", 0xC4A05u);

  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get(), base_seed);
  ThreadPoolExecutor pool(2);

  kv::KVClusterOptions copts;
  copts.num_nodes = 1;
  copts.replication_factor = 1;
  copts.engine_options.env = &fault;
  copts.engine_options.sync_wal = true;
  kv::KVCluster cluster(copts);
  VELOCE_CHECK_OK(cluster.CreateTenantKeyspace(10));

  kv::TxnOptions topts;
  topts.executor = &pool;
  topts.max_buffered_writes = 2;  // several pipelined intent batches per txn

  struct TxnWrite {
    std::string key;
    std::string value;
  };
  std::vector<TxnWrite> acked;
  std::vector<std::string> unacked_keys;

  for (uint64_t iter = 0; iter < iters; ++iter) {
    const uint64_t seed = base_seed + iter;
    SCOPED_TRACE("txn chaos iteration " + std::to_string(iter) + " seed " +
                 std::to_string(seed));
    Random rnd(seed);

    // Roughly a third of the iterations run inside a transient WAL fault
    // window wide enough to hit an in-flight pipelined batch.
    int rule_id = -1;
    if (rnd.Uniform(3) == 0) {
      FaultRule rule;
      rule.op = FaultOp::kAppend;
      rule.path_substr = "wal-";
      rule.skip = static_cast<int>(rnd.Uniform(4));
      rule.count = 1 + static_cast<int>(rnd.Uniform(2));
      rule_id = fault.AddRule(rule);
    }

    const int n = 3 + static_cast<int>(rnd.Uniform(8));
    std::vector<TxnWrite> writes;
    writes.reserve(n);
    kv::Transaction txn(&cluster, 10, 0, nullptr, topts);
    Status op_status = Status::OK();
    for (int i = 0; i < n && op_status.ok(); ++i) {
      TxnWrite w;
      w.key = kv::AddTenantPrefix(
          10, "t" + std::to_string(iter) + "-k" + std::to_string(i));
      w.value = "v" + std::to_string(rnd.Next() % 100000);
      op_status = txn.Put(w.key, w.value);
      writes.push_back(std::move(w));
    }
    const Status commit = op_status.ok() ? txn.Commit() : op_status;
    if (!txn.finalized()) (void)txn.Rollback();
    if (rule_id >= 0) fault.RemoveRule(rule_id);
    if (commit.ok()) {
      for (auto& w : writes) acked.push_back(std::move(w));
    } else {
      for (auto& w : writes) unacked_keys.push_back(std::move(w.key));
    }
  }
  pool.Drain();

  auto read = [&cluster](const std::string& key) {
    kv::BatchRequest req;
    req.tenant_id = 10;
    req.ts = cluster.Now();
    req.AddGet(key);
    return cluster.Send(req);
  };
  for (const auto& w : acked) {
    auto resp = read(w.key);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_TRUE(resp->responses[0].found) << "acked write lost: " << w.key;
    EXPECT_EQ(resp->responses[0].value, w.value);
  }
  // A commit that was NOT acknowledged must leave no trace: atomicity means
  // none of the transaction's writes become visible.
  for (const auto& key : unacked_keys) {
    auto resp = read(key);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_FALSE(resp->responses[0].found)
        << "write from unacked txn visible: " << key;
  }
  // With the default seed the fault windows actually bite; otherwise this
  // would degrade into a smoke test of the happy path.
  if (EnvOr("VELOCE_CHAOS_SEED", 0xC4A05u) == 0xC4A05u && iters >= 100) {
    EXPECT_GT(fault.injected(FaultOp::kAppend), 0u) << "no WAL fault ever fired";
  }
}

/// Storage faults and network faults composed from ONE scenario seed: every
/// iteration derives a disk-fault schedule (DeriveSeed "storage") and a
/// mesh trajectory (DeriveSeed "mesh", inside FaultyMesh) from the same
/// seed, runs a recorded workload against a 3-node replicated cluster
/// while WAL appends fail, links drop/duplicate, and nodes get isolated —
/// and asserts the per-key linearizability checker accepts the history on
/// EVERY iteration. Seeded like the harnesses above (VELOCE_CHAOS_SEED /
/// VELOCE_CHAOS_ITERS).
TEST(FaultChaosTest, ComposedStorageAndNetworkFaultsStayLinearizable) {
  const uint64_t iters = EnvOr("VELOCE_CHAOS_ITERS", 500);
  const uint64_t base_seed = EnvOr("VELOCE_CHAOS_SEED", 0xC4A05u);
  uint64_t storage_faults_fired = 0;
  uint64_t mesh_faults_fired = 0;

  for (uint64_t iter = 0; iter < iters; ++iter) {
    const uint64_t seed = base_seed + iter;
    SCOPED_TRACE("composed chaos iteration " + std::to_string(iter) +
                 " seed " + std::to_string(seed));
    Random rnd(seed);
    auto base = NewMemEnv();
    FaultInjectionEnv fault(base.get(), DeriveSeed(seed, "storage"));
    ManualClock clock(100 * kSecond);
    sim::FaultyMesh mesh(seed);
    sim::MeshProfile profile;
    profile.drop = rnd.NextDouble() * 0.25;
    profile.dup = rnd.NextDouble() * 0.15;
    profile.reorder = rnd.NextDouble() * 0.15;
    mesh.set_profile(profile);

    kv::KVClusterOptions copts;
    copts.num_nodes = 3;
    copts.replication_factor = 3;
    copts.clock = &clock;
    copts.transport = &mesh;
    copts.liveness_duration = 2 * kSecond;
    copts.engine_options.env = &fault;
    copts.engine_options.sync_wal = true;
    kv::KVCluster cluster(copts);
    VELOCE_CHECK_OK(cluster.CreateTenantKeyspace(10));
    cluster.TickHeartbeats();

    // Transient WAL-append fault window on one node's engine, composed
    // with whatever the mesh does to the links this iteration.
    int rule_id = -1;
    if (rnd.Uniform(2) == 0) {
      FaultRule rule;
      rule.op = FaultOp::kAppend;
      rule.path_substr =
          "kvnode-" + std::to_string(rnd.Uniform(3)) + "/wal-";
      rule.skip = static_cast<int>(rnd.Uniform(6));
      rule.count = 1 + static_cast<int>(rnd.Uniform(3));
      rule_id = fault.AddRule(rule);
    }

    kv::HistoryRecorder history;
    int next_value = 0;
    const int ops = 15 + static_cast<int>(rnd.Uniform(15));
    for (int i = 0; i < ops; ++i) {
      const uint64_t dice = rnd.Uniform(12);
      if (dice == 0) {
        mesh.Isolate(static_cast<uint32_t>(rnd.Uniform(3)), 3);
      } else if (dice == 1) {
        const uint32_t from = static_cast<uint32_t>(rnd.Uniform(3));
        mesh.PartitionLink(from, static_cast<uint32_t>((from + 1) % 3));
      } else if (dice <= 3) {
        mesh.HealAll();
      }
      clock.Advance(rnd.Uniform(700 * kMilli));
      if (rnd.Uniform(3) == 0) cluster.TickHeartbeats();

      const std::string key =
          kv::AddTenantPrefix(10, "c" + std::to_string(rnd.Uniform(3)));
      kv::BatchRequest req;
      req.tenant_id = 10;
      req.ts = cluster.Now();
      if (rnd.Uniform(2) == 0) {
        const std::string value = "v" + std::to_string(next_value++);
        const size_t id = history.BeginWrite(key, value);
        req.AddPut(key, value);
        auto resp = cluster.Send(req);
        // Conservative: any failure is "maybe applied" (sound — acked ops
        // keep their strict obligations).
        history.EndWrite(id, resp.ok(), /*maybe=*/!resp.ok());
      } else {
        const size_t id = history.BeginRead(key);
        req.AddGet(key);
        auto resp = cluster.Send(req);
        if (resp.ok()) {
          history.EndRead(id, true, resp->responses[0].found,
                          resp->responses[0].value);
        } else {
          history.EndRead(id, false, false, "");
        }
      }
    }

    // Quiesce: lift both fault layers, let liveness recover, converge.
    if (rule_id >= 0) fault.RemoveRule(rule_id);
    mesh.HealAll();
    clock.Advance(3 * kSecond);
    cluster.TickHeartbeats();
    cluster.TickHeartbeats();
    for (kv::NodeId n = 0; n < 3; ++n) {
      if (cluster.node(n)->engine() != nullptr) {
        (void)cluster.node(n)->engine()->Resume();
      }
      ASSERT_TRUE(cluster.CatchUpNode(n).ok());
    }
    for (int k = 0; k < 3; ++k) {
      const std::string key = kv::AddTenantPrefix(10, "c" + std::to_string(k));
      const size_t id = history.BeginRead(key);
      kv::BatchRequest req;
      req.tenant_id = 10;
      req.ts = cluster.Now();
      req.AddGet(key);
      auto resp = cluster.Send(req);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      history.EndRead(id, true, resp->responses[0].found,
                      resp->responses[0].value);
    }

    const auto result = kv::CheckLinearizability(history.Snapshot());
    ASSERT_TRUE(result.ok) << result.explanation;
    storage_faults_fired += fault.injected(FaultOp::kAppend);
    mesh_faults_fired += mesh.stats().dropped + mesh.stats().blocked;
  }
  // Both fault layers must actually bite under the default seed.
  if (base_seed == 0xC4A05u && iters >= 100) {
    EXPECT_GT(storage_faults_fired, 0u) << "no storage fault ever fired";
    EXPECT_GT(mesh_faults_fired, 0u) << "no network fault ever fired";
  }
}

}  // namespace
}  // namespace veloce::storage
