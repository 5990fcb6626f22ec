// Write-path microbenchmark for the concurrent LSM write path: group
// commit + immutable memtables + background flush/compaction.
//
// Compares, over the same workload (T writer threads, each committing
// fixed-size batches with WAL sync enabled):
//   sync_baseline   — no background executor, and a bench-local mutex
//                     serializes every Engine::Write: each writer pays its
//                     own WAL append + fsync + memtable insert, and flush
//                     runs on the writing thread (no group ever forms)
//   group_commit    — writers queue; the front writer leads, merges the
//                     group, and pays one WAL sync for everyone while the
//                     engine mutex is released; no executor, so flush runs
//                     on the leader's thread at the end of its write
//   group_commit_bg — group commit plus a 2-worker thread pool draining
//                     memtable flushes and compactions off the commit path
// across {1, 2, 8} writer threads. WAL sync latency is made realistic
// (~30us per fsync, roughly an NVMe flush) via an Env wrapper, since an
// in-memory sync is otherwise free and group commit would have nothing
// to amortize.
//
// Emits BENCH_write_path.json (scenario::BenchReport schema); the headline
// `multi_writer_speedup` is group_commit_bg vs sync_baseline at 8 threads
// (acceptance gate >= 2x).

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "scenario/report.h"
#include "storage/background.h"
#include "storage/engine.h"
#include "storage/env.h"

namespace veloce::storage {
namespace {

constexpr int kBatchesPerThread = 200;
constexpr int kOpsPerBatch = 4;
constexpr size_t kValueLen = 100;
constexpr auto kSyncLatency = std::chrono::microseconds(30);

/// WritableFile wrapper that charges a fixed latency per Sync, emulating a
/// device flush on top of the in-memory Env.
class SlowSyncFile : public WritableFile {
 public:
  explicit SlowSyncFile(std::unique_ptr<WritableFile> inner)
      : inner_(std::move(inner)) {}
  Status Append(Slice data) override { return inner_->Append(data); }
  Status Sync() override {
    std::this_thread::sleep_for(kSyncLatency);
    return inner_->Sync();
  }
  Status Close() override { return inner_->Close(); }
  uint64_t Size() const override { return inner_->Size(); }

 private:
  std::unique_ptr<WritableFile> inner_;
};

class SlowSyncEnv : public Env {
 public:
  SlowSyncEnv() : inner_(NewMemEnv()) {}
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* file) override {
    std::unique_ptr<WritableFile> raw;
    VELOCE_RETURN_IF_ERROR(inner_->NewWritableFile(fname, &raw));
    *file = std::make_unique<SlowSyncFile>(std::move(raw));
    return Status::OK();
  }
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* file) override {
    return inner_->NewRandomAccessFile(fname, file);
  }
  Status DeleteFile(const std::string& fname) override {
    return inner_->DeleteFile(fname);
  }
  bool FileExists(const std::string& fname) override {
    return inner_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* out) override {
    return inner_->GetChildren(dir, out);
  }
  Status CreateDirIfMissing(const std::string& dir) override {
    return inner_->CreateDirIfMissing(dir);
  }
  Status RenameFile(const std::string& src, const std::string& target) override {
    return inner_->RenameFile(src, target);
  }

 private:
  std::unique_ptr<Env> inner_;
};

std::string Key(int thread, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t%02d-key%06d", thread, i);
  return buf;
}

struct ModeResult {
  std::string mode;
  int threads = 0;
  double ops_per_sec = 0;
  uint64_t flushes = 0;
  uint64_t stalls = 0;
};

ModeResult RunMode(const std::string& mode, int threads) {
  SlowSyncEnv env;
  std::unique_ptr<ThreadPoolExecutor> pool;
  EngineOptions options;
  options.env = &env;
  options.sync_wal = true;
  options.memtable_bytes = 256 << 10;
  if (mode == "group_commit_bg") {
    pool = std::make_unique<ThreadPoolExecutor>(2);
    options.background_executor = pool.get();
  }
  auto engine = *Engine::Open(options);

  const std::string value(kValueLen, 'v');
  const bool serialize = mode == "sync_baseline";
  std::mutex serial_mu;
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int b = 0; b < kBatchesPerThread; ++b) {
        WriteBatch batch;
        for (int op = 0; op < kOpsPerBatch; ++op) {
          batch.Put(Key(t, b * kOpsPerBatch + op), value);
        }
        std::unique_lock<std::mutex> serial(serial_mu, std::defer_lock);
        if (serialize) serial.lock();
        VELOCE_CHECK_OK(engine->Write(batch));
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();

  const uint64_t total_ops =
      uint64_t{static_cast<uint64_t>(threads)} * kBatchesPerThread * kOpsPerBatch;
  VELOCE_CHECK(engine->LastSequence() == total_ops)
      << mode << "/" << threads << ": seq " << engine->LastSequence();
  // Spot-check durability-visible state before teardown.
  std::string got;
  VELOCE_CHECK_OK(engine->Get(Slice(Key(threads - 1, 0)), &got));

  ModeResult r;
  r.mode = mode;
  r.threads = threads;
  r.ops_per_sec = total_ops / (secs > 0 ? secs : 1e-9);
  r.flushes = engine->stats().num_flushes;
  r.stalls = engine->stats().write_stalls;
  return r;
}

}  // namespace
}  // namespace veloce::storage

int main() {
  using veloce::storage::ModeResult;
  using veloce::storage::RunMode;

  std::vector<ModeResult> results;
  double baseline_8t = 0;
  double bg_8t = 0;
  for (const char* mode : {"sync_baseline", "group_commit", "group_commit_bg"}) {
    for (const int threads : {1, 2, 8}) {
      ModeResult r = RunMode(mode, threads);
      std::printf("  %-16s threads=%d : %10.0f ops/sec  (flushes=%llu stalls=%llu)\n",
                  r.mode.c_str(), r.threads, r.ops_per_sec,
                  static_cast<unsigned long long>(r.flushes),
                  static_cast<unsigned long long>(r.stalls));
      if (r.threads == 8 && r.mode == "sync_baseline") baseline_8t = r.ops_per_sec;
      if (r.threads == 8 && r.mode == "group_commit_bg") bg_8t = r.ops_per_sec;
      results.push_back(std::move(r));
    }
  }

  const double speedup = baseline_8t > 0 ? bg_8t / baseline_8t : 0;
  std::printf("\nmulti-writer speedup (group_commit_bg vs sync_baseline, 8 threads): %.2fx\n",
              speedup);

  veloce::scenario::BenchReport report("write_path");
  report.AddParam("batches_per_thread", veloce::storage::kBatchesPerThread);
  report.AddParam("ops_per_batch", veloce::storage::kOpsPerBatch);
  report.AddParam("sync_latency_us",
                  static_cast<int64_t>(
                      std::chrono::duration_cast<std::chrono::microseconds>(
                          veloce::storage::kSyncLatency)
                          .count()));
  report.AddMetric("multi_writer_speedup", speedup);
  for (const auto& r : results) {
    const std::string cfg = r.mode + "_" + std::to_string(r.threads) + "t";
    report.AddMetric("ops_per_sec__" + cfg, r.ops_per_sec);
    report.AddMetric("flushes__" + cfg, r.flushes);
    report.AddMetric("stalls__" + cfg, r.stalls);
  }
  report.Gate("multi_writer_speedup", speedup, 2.0);

  auto path = report.WriteFile(".");
  VELOCE_CHECK(path.ok());
  std::printf("wrote %s\n", path->c_str());
  std::printf("%s\n", report.Summary().c_str());
  if (!report.passed()) {
    std::printf("WARNING: speedup below the 2x acceptance gate\n");
    return 1;
  }
  return 0;
}
