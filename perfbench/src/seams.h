// Pass-through counting seams, installed only in traced runs through the
// program's public injection points: KVClusterOptions::engine_options.env
// and KVClusterOptions::transport. Untraced runs keep the defaults.
#ifndef PERFBENCH_SEAMS_H_
#define PERFBENCH_SEAMS_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "kv/replica_transport.h"
#include "storage/env.h"
#include "trace.h"

namespace perfbench {

struct EnvCounts {
  std::atomic<int64_t> appends{0}, append_bytes{0}, syncs{0}, reads{0}, read_bytes{0};
  std::atomic<int64_t> io_ns{0};  ///< wall time inside Append, Sync and Read
};

/// Wraps an in-memory Env (the engines' default) and counts and times
/// Append, Sync and Read on every file it opens.
class CountingEnv final : public veloce::storage::Env {
 public:
  CountingEnv() : inner_(veloce::storage::NewMemEnv()) {}
  const EnvCounts& counts() const { return counts_; }

  veloce::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<veloce::storage::WritableFile>* file) override {
    std::unique_ptr<veloce::storage::WritableFile> raw;
    veloce::Status s = inner_->NewWritableFile(fname, &raw);
    if (s.ok()) *file = std::make_unique<Writable>(std::move(raw), &counts_);
    return s;
  }
  veloce::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<veloce::storage::RandomAccessFile>* file) override {
    std::unique_ptr<veloce::storage::RandomAccessFile> raw;
    veloce::Status s = inner_->NewRandomAccessFile(fname, &raw);
    if (s.ok()) *file = std::make_unique<RandomAccess>(std::move(raw), &counts_);
    return s;
  }
  veloce::Status DeleteFile(const std::string& fname) override {
    return inner_->DeleteFile(fname);
  }
  bool FileExists(const std::string& fname) override { return inner_->FileExists(fname); }
  veloce::Status GetChildren(const std::string& dir, std::vector<std::string>* out) override {
    return inner_->GetChildren(dir, out);
  }
  veloce::Status CreateDirIfMissing(const std::string& dir) override {
    return inner_->CreateDirIfMissing(dir);
  }
  veloce::Status RenameFile(const std::string& src, const std::string& target) override {
    return inner_->RenameFile(src, target);
  }

 private:
  class Writable final : public veloce::storage::WritableFile {
   public:
    Writable(std::unique_ptr<veloce::storage::WritableFile> inner, EnvCounts* c)
        : inner_(std::move(inner)), c_(c) {}
    veloce::Status Append(veloce::Slice data) override {
      const int64_t t0 = NowNs();
      veloce::Status s = inner_->Append(data);
      c_->io_ns += NowNs() - t0;
      c_->appends += 1;
      c_->append_bytes += static_cast<int64_t>(data.size());
      return s;
    }
    veloce::Status Sync() override {
      const int64_t t0 = NowNs();
      veloce::Status s = inner_->Sync();
      c_->io_ns += NowNs() - t0;
      c_->syncs += 1;
      return s;
    }
    veloce::Status Close() override { return inner_->Close(); }
    uint64_t Size() const override { return inner_->Size(); }

   private:
    std::unique_ptr<veloce::storage::WritableFile> inner_;
    EnvCounts* c_;
  };

  class RandomAccess final : public veloce::storage::RandomAccessFile {
   public:
    RandomAccess(std::unique_ptr<veloce::storage::RandomAccessFile> inner, EnvCounts* c)
        : inner_(std::move(inner)), c_(c) {}
    veloce::Status Read(uint64_t offset, size_t n, std::string* out) const override {
      const int64_t t0 = NowNs();
      veloce::Status s = inner_->Read(offset, n, out);
      c_->io_ns += NowNs() - t0;
      c_->reads += 1;
      c_->read_bytes += static_cast<int64_t>(n);
      return s;
    }
    uint64_t Size() const override { return inner_->Size(); }

   private:
    std::unique_ptr<veloce::storage::RandomAccessFile> inner_;
    EnvCounts* c_;
  };

  std::unique_ptr<veloce::storage::Env> inner_;
  EnvCounts counts_;
};

/// Delivers everything, like the cluster's default PassthroughTransport,
/// and counts the replication deliveries it lets through.
class CountingTransport final : public veloce::kv::ReplicaTransport {
 public:
  veloce::kv::LinkDecision DeliverReplication(uint32_t, uint32_t, uint64_t) override {
    deliveries_.fetch_add(1, std::memory_order_relaxed);
    return veloce::kv::LinkDecision{};
  }
  bool DeliverHeartbeat(uint32_t, uint32_t) override { return true; }
  int64_t deliveries() const { return deliveries_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> deliveries_{0};
};

/// Both seams for one cluster; owned by the run so they outlive it.
struct Seams {
  CountingEnv env;
  CountingTransport transport;
};

}  // namespace perfbench

#endif  // PERFBENCH_SEAMS_H_
