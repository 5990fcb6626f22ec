#include "storage/engine.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/codec.h"
#include "common/logging.h"
#include "storage/background.h"

namespace veloce::storage {

namespace {

// Applies a WriteBatch to a memtable, assigning consecutive sequence numbers
// starting at base_seq.
class MemTableInserter : public WriteBatch::Handler {
 public:
  MemTableInserter(MemTable* mem, SequenceNumber base_seq)
      : mem_(mem), seq_(base_seq) {}

  void Put(Slice key, Slice value) override {
    mem_->Add(seq_++, ValueType::kValue, key, value);
  }
  void Delete(Slice key) override {
    mem_->Add(seq_++, ValueType::kDeletion, key, Slice());
  }

  SequenceNumber next_seq() const { return seq_; }

 private:
  MemTable* mem_;
  SequenceNumber seq_;
};

}  // namespace

std::string Engine::TableFileName(uint64_t number) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/%06" PRIu64 ".sst", number);
  return options_.dir + buf;
}

std::string Engine::WalFileName(uint64_t number) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/wal-%06" PRIu64 ".log", number);
  return options_.dir + buf;
}

std::string Engine::ManifestFileName() const { return options_.dir + "/MANIFEST"; }

namespace {
TableOptions MakeTableOptions(const EngineOptions& options) {
  return TableOptions{.block_size = options.block_bytes,
                      .bloom_filter = options.bloom_filters,
                      .bloom_bits_per_key = options.bloom_bits_per_key,
                      .prefix_extractor = options.prefix_extractor};
}
}  // namespace

StatusOr<std::unique_ptr<Engine>> Engine::Open(EngineOptions options) {
  auto engine = std::unique_ptr<Engine>(new Engine());
  engine->options_ = options;
  if (options.env == nullptr) {
    engine->owned_env_ = NewMemEnv();
    engine->env_ = engine->owned_env_.get();
  } else {
    engine->env_ = options.env;
  }
  VELOCE_RETURN_IF_ERROR(engine->env_->CreateDirIfMissing(options.dir));
  if (options.block_cache_bytes > 0) {
    engine->block_cache_ = std::make_unique<BlockCache>(options.block_cache_bytes,
                                                        options.block_cache_shards);
  }
  if (options.background_executor == nullptr) {
    engine->inline_executor_ = std::make_unique<InlineExecutor>();
    engine->executor_ = engine->inline_executor_.get();
  } else {
    engine->executor_ = options.background_executor;
  }
  engine->mem_ = std::make_shared<MemTable>();
  engine->InitMetrics();
  VELOCE_RETURN_IF_ERROR(engine->Recover());
  return engine;
}

void Engine::InitMetrics() {
  if (options_.obs.metrics != nullptr) {
    metrics_ = options_.obs.metrics;
  } else {
    // Private registry: keeps stats() per-instance-correct with zero wiring.
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  obs::Labels labels;
  if (!options_.metrics_instance.empty()) {
    labels.emplace_back("node", options_.metrics_instance);
  }
  ingest_bytes_c_ = metrics_->counter("veloce_storage_ingest_bytes", labels);
  wal_bytes_c_ = metrics_->counter("veloce_storage_wal_bytes", labels);
  flush_bytes_c_ = metrics_->counter("veloce_storage_flush_bytes", labels);
  compact_read_bytes_c_ = metrics_->counter("veloce_storage_compact_read_bytes", labels);
  compact_write_bytes_c_ =
      metrics_->counter("veloce_storage_compact_write_bytes", labels);
  flushes_c_ = metrics_->counter("veloce_storage_flushes_total", labels);
  compactions_c_ = metrics_->counter("veloce_storage_compactions_total", labels);
  // Point-read fast path: bloom and pruning effectiveness.
  bloom_checked_c_ = metrics_->counter("veloce_storage_bloom_checked_total", labels);
  bloom_useful_c_ = metrics_->counter("veloce_storage_bloom_useful_total", labels);
  bloom_false_positive_c_ =
      metrics_->counter("veloce_storage_bloom_false_positive_total", labels);
  tables_pruned_c_ =
      metrics_->counter("veloce_storage_read_tables_pruned_total", labels);
  // Write path: backpressure and group commit effectiveness. Stall seconds
  // is a Gauge fed with cumulative Add() because stalls are fractional.
  write_stalls_c_ = metrics_->counter("veloce_storage_write_stalls_total", labels);
  stall_seconds_g_ =
      metrics_->gauge("veloce_storage_write_stall_seconds_total", labels);
  commit_group_size_h_ =
      metrics_->histogram("veloce_storage_commit_group_size", labels);
  // Fault tolerance: degraded-mode state machine + background retry churn.
  degraded_g_ = metrics_->gauge("veloce_storage_degraded_mode", labels);
  degraded_entries_c_ =
      metrics_->counter("veloce_storage_degraded_entries_total", labels);
  degraded_exits_c_ =
      metrics_->counter("veloce_storage_degraded_exits_total", labels);
  bg_retries_c_ = metrics_->counter("veloce_storage_bg_retries_total", labels);
  bg_retry_backoff_h_ =
      metrics_->histogram("veloce_storage_bg_retry_backoff_ns", labels);
  wal_truncated_c_ =
      metrics_->counter("veloce_storage_wal_truncated_records_total", labels);
  // Pull-style gauges: L0/flush backlog and block-cache hit ratio inputs.
  obs::Gauge* l0 = metrics_->gauge("veloce_storage_l0_files", labels);
  obs::Gauge* bg_depth = metrics_->gauge("veloce_storage_bg_queue_depth", labels);
  obs::Gauge* imm = metrics_->gauge("veloce_storage_imm_memtables", labels);
  obs::Gauge* hits = metrics_->gauge("veloce_storage_block_cache_hits", labels);
  obs::Gauge* misses = metrics_->gauge("veloce_storage_block_cache_misses", labels);
  obs::Gauge* ratio = metrics_->gauge("veloce_storage_block_cache_hit_ratio", labels);
  // Per-shard series expose lock-contention hot spots in the sharded cache.
  std::vector<std::pair<obs::Gauge*, obs::Gauge*>> shard_gauges;
  if (block_cache_ != nullptr) {
    for (size_t i = 0; i < block_cache_->num_shards(); ++i) {
      obs::Labels shard_labels = labels;
      shard_labels.emplace_back("shard", std::to_string(i));
      shard_gauges.emplace_back(
          metrics_->gauge("veloce_storage_block_cache_shard_hits", shard_labels),
          metrics_->gauge("veloce_storage_block_cache_shard_misses", shard_labels));
    }
  }
  gauge_callback_ = metrics_->AddCollectCallback(
      [this, l0, bg_depth, imm, hits, misses, ratio,
       shard_gauges = std::move(shard_gauges)] {
        l0->Set(NumFilesAtLevel(0));
        bg_depth->Set(static_cast<double>(executor_->queue_depth()));
        imm->Set(static_cast<double>(imm_count_.load(std::memory_order_relaxed)));
        if (block_cache_ != nullptr) {
          const double h = static_cast<double>(block_cache_->hits());
          const double m = static_cast<double>(block_cache_->misses());
          hits->Set(h);
          misses->Set(m);
          ratio->Set(h + m > 0 ? h / (h + m) : 0);
          for (size_t i = 0; i < shard_gauges.size(); ++i) {
            shard_gauges[i].first->Set(
                static_cast<double>(block_cache_->shard_hits(i)));
            shard_gauges[i].second->Set(
                static_cast<double>(block_cache_->shard_misses(i)));
          }
        }
      });
}

const EngineStats& Engine::stats() const {
  stats_snapshot_.ingest_bytes = ingest_bytes_c_->value();
  stats_snapshot_.wal_bytes = wal_bytes_c_->value();
  stats_snapshot_.flush_bytes = flush_bytes_c_->value();
  stats_snapshot_.compact_read_bytes = compact_read_bytes_c_->value();
  stats_snapshot_.compact_write_bytes = compact_write_bytes_c_->value();
  stats_snapshot_.num_flushes = flushes_c_->value();
  stats_snapshot_.num_compactions = compactions_c_->value();
  stats_snapshot_.bloom_checked = bloom_checked_c_->value();
  stats_snapshot_.bloom_useful = bloom_useful_c_->value();
  stats_snapshot_.bloom_false_positive = bloom_false_positive_c_->value();
  stats_snapshot_.tables_pruned = tables_pruned_c_->value();
  stats_snapshot_.write_stalls = write_stalls_c_->value();
  stats_snapshot_.stall_seconds = stall_seconds_g_->value();
  return stats_snapshot_;
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> l(mu_);
    shutting_down_ = true;
  }
  // Taking the token mutex waits out an in-flight background task; queued
  // tasks that run later see !alive and no-op (an owned InlineExecutor
  // drops its queue unrun). Anything still buffered in mem_/imm_ is covered
  // by retained WALs and replays on reopen.
  std::lock_guard<std::mutex> tl(bg_token_->mu);
  bg_token_->alive = false;
}

Status Engine::Recover() {
  if (env_->FileExists(ManifestFileName())) {
    VELOCE_RETURN_IF_ERROR(LoadManifest());
  }
  // Replay any WALs present, in number order, into the memtable. A crash
  // can leave several: the active WAL plus one per sealed memtable that
  // was still waiting on its background flush.
  std::vector<std::string> children;
  VELOCE_RETURN_IF_ERROR(env_->GetChildren(options_.dir, &children));
  std::vector<std::string> wals;
  for (const auto& name : children) {
    if (name.rfind("wal-", 0) == 0) wals.push_back(name);
  }
  std::sort(wals.begin(), wals.end());
  for (const auto& name : wals) {
    VELOCE_RETURN_IF_ERROR(ReplayWal(options_.dir + "/" + name));
  }
  if (mem_->num_entries() > 0) {
    std::unique_lock<std::mutex> l(mu_);
    VELOCE_RETURN_IF_ERROR(RotateMemtableLocked());
    VELOCE_RETURN_IF_ERROR(FlushOldestImm(l, /*unlock=*/false));
  }
  for (const auto& name : wals) {
    VELOCE_RETURN_IF_ERROR(env_->DeleteFile(options_.dir + "/" + name));
  }
  return NewWal();
}

Status Engine::ReplayWal(const std::string& fname) {
  std::string contents;
  VELOCE_RETURN_IF_ERROR(env_->ReadFileToString(fname, &contents));
  LogReader reader(std::move(contents));
  std::string record;
  bool corruption = false;
  while (reader.ReadRecord(&record, &corruption)) {
    Slice payload(record);
    uint64_t base_seq = 0;
    if (!GetFixed64(&payload, &base_seq)) {
      return Status::Corruption(
          "WAL record #" + std::to_string(reader.records_read()) +
          " (ending at offset " + std::to_string(reader.offset()) +
          ") missing sequence in " + fname);
    }
    WriteBatch batch;
    VELOCE_RETURN_IF_ERROR(batch.SetContents(payload));
    MemTableInserter inserter(mem_.get(), base_seq);
    VELOCE_RETURN_IF_ERROR(batch.Iterate(&inserter));
    if (inserter.next_seq() - 1 > last_seq_.load(std::memory_order_relaxed)) {
      last_seq_.store(inserter.next_seq() - 1, std::memory_order_relaxed);
    }
  }
  if (corruption) {
    // Damage with intact records after it cannot be a torn write — refusing
    // to continue beats silently dropping acked writes.
    return Status::Corruption(
        "corrupt WAL record #" + std::to_string(reader.records_read() + 1) +
        " at offset " + std::to_string(reader.offset()) + " in " + fname +
        " (mid-log damage, not a torn tail)");
  }
  if (reader.tail_truncated()) {
    // Torn tail: the final record never fully persisted, so it was never
    // acked as durable. Drop it and carry on.
    wal_truncated_c_->Inc();
    VLOG_WARN << "storage: dropped torn WAL tail in " << fname << " ("
              << reader.truncated_bytes() << " bytes after record #"
              << reader.records_read() << ", offset " << reader.offset() << ")";
  }
  return Status::OK();
}

Status Engine::NewWal() {
  wal_number_ = next_file_number_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<WritableFile> file;
  VELOCE_RETURN_IF_ERROR(env_->NewWritableFile(WalFileName(wal_number_), &file));
  wal_ = std::make_unique<LogWriter>(std::move(file));
  return Status::OK();
}

Status Engine::WriteManifest() {
  std::string out;
  PutFixed64(&out, next_file_number_.load(std::memory_order_relaxed));
  PutFixed64(&out, last_seq_.load(std::memory_order_relaxed));
  uint32_t num_files = 0;
  for (int level = 0; level < kNumLevels; ++level) {
    num_files += static_cast<uint32_t>(levels_[level].size());
  }
  PutFixed32(&out, num_files);
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_[level]) {
      PutFixed32(&out, static_cast<uint32_t>(level));
      PutFixed64(&out, f->number);
      PutFixed64(&out, f->file_size);
      PutLengthPrefixed(&out, Slice(f->smallest));
      PutLengthPrefixed(&out, Slice(f->largest));
    }
  }
  return env_->WriteStringToFile(ManifestFileName(), Slice(out));
}

Status Engine::LoadManifest() {
  std::string contents;
  VELOCE_RETURN_IF_ERROR(env_->ReadFileToString(ManifestFileName(), &contents));
  Slice in(contents);
  uint32_t num_files = 0;
  uint64_t next_file = 0, last_seq = 0;
  if (!GetFixed64(&in, &next_file) || !GetFixed64(&in, &last_seq) ||
      !GetFixed32(&in, &num_files)) {
    return Status::Corruption("bad manifest header");
  }
  next_file_number_.store(next_file, std::memory_order_relaxed);
  last_seq_.store(last_seq, std::memory_order_relaxed);
  for (uint32_t i = 0; i < num_files; ++i) {
    uint32_t level = 0;
    auto meta = std::make_shared<FileMeta>();
    Slice smallest, largest;
    if (!GetFixed32(&in, &level) || !GetFixed64(&in, &meta->number) ||
        !GetFixed64(&in, &meta->file_size) || !GetLengthPrefixed(&in, &smallest) ||
        !GetLengthPrefixed(&in, &largest) || level >= kNumLevels) {
      return Status::Corruption("bad manifest entry");
    }
    meta->smallest = smallest.ToString();
    meta->largest = largest.ToString();
    std::unique_ptr<RandomAccessFile> file;
    VELOCE_RETURN_IF_ERROR(env_->NewRandomAccessFile(TableFileName(meta->number), &file));
    VELOCE_ASSIGN_OR_RETURN(meta->table,
                            Table::Open(std::move(file), block_cache_.get(), meta->number));
    levels_[level].push_back(std::move(meta));
  }
  // L0 must be newest-first (higher file number = newer flush).
  std::sort(levels_[0].begin(), levels_[0].end(),
            [](const auto& a, const auto& b) { return a->number > b->number; });
  for (int level = 1; level < kNumLevels; ++level) {
    std::sort(levels_[level].begin(), levels_[level].end(),
              [](const auto& a, const auto& b) {
                return Slice(a->smallest) < Slice(b->smallest);
              });
  }
  return Status::OK();
}

Status Engine::Put(Slice key, Slice value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(batch);
}

Status Engine::Delete(Slice key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(batch);
}

Status Engine::Write(const WriteBatch& batch) {
  if (batch.Count() == 0) return Status::OK();
  // Validate the batch before it touches any engine state, so a malformed
  // batch leaves no WAL record, no memtable entries, and the sequence
  // counter unmoved (writes are all-or-nothing).
  {
    struct Validator : WriteBatch::Handler {
      void Put(Slice, Slice) override {}
      void Delete(Slice) override {}
    } validator;
    VELOCE_RETURN_IF_ERROR(batch.Iterate(&validator));
  }
  std::unique_lock<std::mutex> l(mu_);
  Writer w(&batch);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.wait(l);
  }
  if (w.done) return w.status;  // a leader committed us as a follower
  Status s = WriteGroupCommit(l, &w);
  l.unlock();
  // No executor was supplied: the leader runs the background work this
  // write scheduled, so it has finished by the time the write returns.
  if (inline_executor_ != nullptr) inline_executor_->RunQueued();
  return s;
}

bool Engine::IsTransientError(const Status& s) {
  // I/O flakes and unreachable storage are worth retrying; corruption and
  // logic errors are not — retrying cannot repair damaged bytes.
  return s.code() == Code::kIOError || s.code() == Code::kUnavailable;
}

bool Engine::degraded() const {
  std::lock_guard<std::mutex> l(mu_);
  return !bg_error_.ok();
}

Status Engine::background_error() const {
  std::lock_guard<std::mutex> l(mu_);
  return bg_error_;
}

Status Engine::DegradedStatusLocked() const {
  if (bg_error_.ok()) return Status::OK();
  return Status::Unavailable("engine degraded (read-only): " +
                             bg_error_.ToString());
}

void Engine::EnterDegradedLocked(const Status& s) {
  if (!bg_error_.ok()) return;  // already degraded; keep the first cause
  bg_error_ = s;
  degraded_entries_c_->Inc();
  degraded_g_->Set(1);
  VLOG_WARN << "storage: entering read-only degraded mode: " << s.ToString();
}

Status Engine::HandleForegroundFailureLocked(Status s) {
  if (!s.ok() && !IsTransientError(s)) EnterDegradedLocked(s);
  return s;
}

Status Engine::Resume() {
  std::unique_lock<std::mutex> l(mu_);
  if (bg_error_.ok()) return Status::OK();
  // Degraded mode schedules no new work, but an in-flight task may still
  // be winding down; quiesce before re-driving the backlog ourselves.
  while (!writers_.empty() || bg_scheduled_) {
    WaitWritersIdleLocked(l);
    WaitBackgroundIdleLocked(l);
  }
  // Retry the work that failed. If the fault has not cleared, stay degraded
  // (with the fresh cause) so reads keep working and Resume() can be tried
  // again later.
  Status s;
  while (s.ok() && !imm_.empty()) {
    s = FlushOldestImm(l, /*unlock=*/false);
  }
  if (s.ok()) s = CompactOneStep(nullptr);
  if (!s.ok()) {
    bg_error_ = s;
    return DegradedStatusLocked();
  }
  bg_error_ = Status::OK();
  bg_retry_attempts_ = 0;
  degraded_exits_c_->Inc();
  degraded_g_->Set(0);
  VLOG_INFO << "storage: resumed from degraded mode";
  MaybeScheduleBackgroundLocked();
  return Status::OK();
}

Status Engine::WriteGroupCommit(std::unique_lock<std::mutex>& l, Writer* w) {
  Status s = DegradedStatusLocked();
  if (s.ok()) s = MakeRoomForWriteLocked(l);  // we stay the front writer

  // Merge queued followers into one group: one WAL record, one optional
  // sync, one memtable-insert pass for the whole group. Capped so a huge
  // group cannot hold its tail writers up for too long.
  Writer* last_writer = w;
  const WriteBatch* gbatch = w->batch;
  size_t group_size = 1;
  if (s.ok()) {
    constexpr size_t kMaxGroupBytes = 1 << 20;
    size_t bytes = gbatch->ByteSize();
    auto it = writers_.begin();
    ++it;  // skip self
    for (; it != writers_.end(); ++it) {
      Writer* follower = *it;
      if (bytes + follower->batch->ByteSize() > kMaxGroupBytes) break;
      if (gbatch == w->batch) {
        tmp_batch_.Clear();
        tmp_batch_.Append(*w->batch);
        gbatch = &tmp_batch_;
      }
      tmp_batch_.Append(*follower->batch);
      bytes += follower->batch->ByteSize();
      last_writer = follower;
      ++group_size;
    }
  }

  if (s.ok()) {
    const SequenceNumber base_seq = last_seq_.load(std::memory_order_relaxed) + 1;
    std::shared_ptr<MemTable> mem = mem_;
    LogWriter* wal = wal_.get();
    // Commit I/O runs with the engine unlocked: we remain the front writer,
    // so no one else appends to the WAL or rotates the memtable, while
    // reads and background flush/compaction proceed concurrently.
    l.unlock();
    std::string record;
    PutFixed64(&record, base_seq);
    record.append(gbatch->rep());
    s = wal->AddRecord(Slice(record));
    if (s.ok() && options_.sync_wal) s = wal->Sync();
    if (s.ok()) {
      wal_bytes_c_->Inc(record.size() + 8);  // payload + frame header
      ingest_bytes_c_->Inc(gbatch->PayloadBytes());
      MemTableInserter inserter(mem.get(), base_seq);
      s = gbatch->Iterate(&inserter);  // every batch was pre-validated
      if (s.ok()) {
        // Publish. Entries inserted above were invisible until this store:
        // readers snapshot last_seq_ and filter newer sequence numbers.
        last_seq_.store(base_seq + gbatch->Count() - 1, std::memory_order_release);
      }
    }
    l.lock();
  }
  commit_group_size_h_->Record(static_cast<int64_t>(group_size));

  // Pop the whole group, waking followers with the shared status.
  while (true) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != w) {
      ready->status = s;
      ready->done = true;
      ready->cv.notify_one();
    }
    if (ready == last_writer) break;
  }
  if (!writers_.empty()) {
    writers_.front()->cv.notify_one();  // promote the next leader
  } else {
    writers_empty_cv_.notify_all();
  }
  return s;
}

Status Engine::MakeRoomForWriteLocked(std::unique_lock<std::mutex>& l) {
  Clock* clock = options_.obs.clock_or_real();
  bool stalled = false;
  Nanos stall_start = 0;
  Status s;
  while (s.ok()) {
    if (!bg_error_.ok()) {
      s = DegradedStatusLocked();
      break;
    }
    if (mem_->ApproximateMemoryUsage() < options_.memtable_bytes) break;
    const bool imm_full =
        static_cast<int>(imm_.size()) >= options_.max_immutable_memtables;
    // Below the compaction trigger no background work would ever drain L0,
    // so a stall there could never end.
    const bool l0_full =
        static_cast<int>(levels_[0].size()) >=
        std::max(options_.l0_stall_files, options_.l0_compaction_trigger);
    if (!imm_full && !l0_full) {
      // The sealed WAL must be durable before the next one takes a write:
      // recovery replays WALs in order, and a torn older WAL under an
      // intact newer one would bring back later writes without earlier ones.
      s = wal_->Sync();
      if (s.ok()) s = RotateMemtableLocked();
      if (s.ok()) MaybeScheduleBackgroundLocked();
      break;
    }
    // Backpressure: too many sealed memtables or L0 files — delay this
    // writer until background work catches up. The delay is surfaced via
    // write_stalls/stall_seconds, which admission control reads as "the
    // engine is past its sustainable write capacity".
    if (!stalled) {
      stalled = true;
      write_stalls_c_->Inc();
      stall_start = clock->Now();
    }
    if (executor_->single_threaded()) {
      l.unlock();
      const size_t ran = executor_->RunQueued();
      l.lock();
      if (ran == 0) {
        // Nothing runnable here (e.g. a deferring test executor): do one
        // unit inline rather than spin forever.
        if (!imm_.empty()) {
          s = HandleForegroundFailureLocked(FlushOldestImm(l, /*unlock=*/false));
        } else {
          s = HandleForegroundFailureLocked(CompactOneStep(nullptr));
        }
      }
    } else {
      bg_cv_.wait(l);
    }
  }
  if (stalled) {
    stall_seconds_g_->Add(static_cast<double>(clock->Now() - stall_start) /
                          static_cast<double>(kSecond));
  }
  return s;
}

Status Engine::RotateMemtableLocked() {
  // The sealed memtable keeps its WAL: recovery replays WALs in number
  // order, so a crash before the flush still restores it.
  imm_.push_back(ImmMem{mem_, wal_number_});
  imm_count_.store(imm_.size(), std::memory_order_relaxed);
  mem_ = std::make_shared<MemTable>();
  return NewWal();
}

bool Engine::HasBackgroundWorkLocked() const {
  if (!imm_.empty()) return true;
  if (static_cast<int>(levels_[0].size()) >= options_.l0_compaction_trigger) {
    return true;
  }
  for (int level = 1; level < kNumLevels - 1; ++level) {
    if (LevelBytesLocked(level) > MaxBytesForLevel(level)) return true;
  }
  return false;
}

void Engine::MaybeScheduleBackgroundLocked() {
  if (shutting_down_ || bg_scheduled_) return;
  if (!bg_error_.ok()) return;
  if (!HasBackgroundWorkLocked()) return;
  bg_scheduled_ = true;
  ++bg_schedules_;
  auto token = bg_token_;
  Engine* self = this;
  executor_->Schedule([self, token] {
    // Holding the token mutex while working makes ~Engine block until an
    // in-flight task finishes; tasks arriving after shutdown no-op.
    std::lock_guard<std::mutex> tl(token->mu);
    if (!token->alive) return;
    self->BackgroundWork();
  });
}

void Engine::BackgroundWork() {
  std::unique_lock<std::mutex> l(mu_);
  Status s;
  if (!shutting_down_) {
    if (!imm_.empty()) {
      s = FlushOldestImm(l, /*unlock=*/true);
    } else {
      s = CompactOneStep(&l);
    }
  }
  if (!s.ok() && !shutting_down_ && bg_error_.ok()) {
    if (IsTransientError(s) && bg_retry_attempts_ < options_.max_bg_retries) {
      // Transient failure (I/O flake): retry the same unit of work after
      // capped exponential backoff. bg_scheduled_ stays true so nothing
      // double-schedules while the retry is pending.
      ++bg_retry_attempts_;
      bg_retries_c_->Inc();
      Nanos backoff = options_.bg_retry_base_backoff;
      for (int i = 1;
           i < bg_retry_attempts_ && backoff < options_.bg_retry_max_backoff;
           ++i) {
        backoff *= 2;
      }
      if (backoff > options_.bg_retry_max_backoff) {
        backoff = options_.bg_retry_max_backoff;
      }
      bg_retry_backoff_h_->Record(backoff);
      VLOG_WARN << "storage: background work failed transiently (attempt "
                << bg_retry_attempts_ << "/" << options_.max_bg_retries
                << ", retrying in " << backoff << "ns): " << s.ToString();
      auto token = bg_token_;
      Engine* self = this;
      executor_->ScheduleAfter(static_cast<uint64_t>(backoff), [self, token] {
        std::lock_guard<std::mutex> tl(token->mu);
        if (!token->alive) return;
        self->BackgroundWork();
      });
      bg_cv_.notify_all();
      return;
    }
    // Hard error, or the transient-retry budget is spent: latch it and go
    // read-only. Resume() is the only way out.
    EnterDegradedLocked(s);
  } else if (s.ok()) {
    bg_retry_attempts_ = 0;
  }
  bg_scheduled_ = false;
  MaybeScheduleBackgroundLocked();  // more work? chain the next unit
  bg_cv_.notify_all();
}

Status Engine::FlushOldestImm(std::unique_lock<std::mutex>& l, bool unlock) {
  if (imm_.empty()) return Status::OK();
  ImmMem target = imm_.front();
  auto meta = std::make_shared<FileMeta>();
  meta->number = next_file_number_.fetch_add(1, std::memory_order_relaxed);
  Status s;
  if (unlock) {
    // Build the L0 table unlocked: the sealed memtable is frozen and pinned
    // by the shared_ptr, and flushes are serialized (one background task at
    // a time; foreground drains quiesce first), so imm_.front() is stable.
    l.unlock();
    s = BuildMemTable(*target.mem, meta.get());
    l.lock();
  } else {
    s = BuildMemTable(*target.mem, meta.get());
  }
  VELOCE_RETURN_IF_ERROR(s);
  levels_[0].insert(levels_[0].begin(), meta);  // newest first
  flush_bytes_c_->Inc(meta->file_size);
  flushes_c_->Inc();
  imm_.pop_front();
  imm_count_.store(imm_.size(), std::memory_order_relaxed);
  VELOCE_RETURN_IF_ERROR(WriteManifest());
  // The sealed memtable is durable in L0; retire the WAL that covered it.
  (void)env_->DeleteFile(WalFileName(target.wal_number));
  return Status::OK();
}

void Engine::WaitWritersIdleLocked(std::unique_lock<std::mutex>& l) {
  while (!writers_.empty()) {
    writers_empty_cv_.wait(l);
  }
}

void Engine::WaitBackgroundIdleLocked(std::unique_lock<std::mutex>& l) {
  while (bg_scheduled_) {
    if (executor_->single_threaded()) {
      const uint64_t schedules = bg_schedules_;
      l.unlock();
      const size_t ran = executor_->RunQueued();
      l.lock();
      if (ran == 0 && bg_schedules_ == schedules) {
        // The queued task is deferred beyond our reach (test executors);
        // it re-checks engine state whenever it does run, so treating the
        // engine as idle here is safe. A task scheduled while we were
        // unlocked (another thread draining an InlineExecutor) is not
        // deferred: loop and drain it.
        bg_scheduled_ = false;
      }
    } else {
      bg_cv_.wait(l);
    }
  }
}

Status Engine::BuildMemTable(const MemTable& mem, FileMeta* meta) {
  const std::string fname = TableFileName(meta->number);
  {
    std::unique_ptr<WritableFile> file;
    VELOCE_RETURN_IF_ERROR(env_->NewWritableFile(fname, &file));
    TableBuilder builder(std::move(file), MakeTableOptions(options_));
    auto it = mem.NewIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      VELOCE_RETURN_IF_ERROR(builder.Add(it->key(), it->value()));
    }
    VELOCE_RETURN_IF_ERROR(builder.Finish());
    meta->file_size = builder.file_size();
    meta->smallest = builder.smallest();
    meta->largest = builder.largest();
  }
  std::unique_ptr<RandomAccessFile> file;
  VELOCE_RETURN_IF_ERROR(env_->NewRandomAccessFile(fname, &file));
  VELOCE_ASSIGN_OR_RETURN(meta->table,
                          Table::Open(std::move(file), block_cache_.get(), meta->number));
  return Status::OK();
}

Status Engine::Flush() {
  std::unique_lock<std::mutex> l(mu_);
  VELOCE_RETURN_IF_ERROR(FlushAllLocked(l));
  MaybeScheduleBackgroundLocked();  // L0 may now be over its trigger
  return Status::OK();
}

Status Engine::FlushAllLocked(std::unique_lock<std::mutex>& l) {
  VELOCE_RETURN_IF_ERROR(DegradedStatusLocked());
  // Quiesce: no queued writers (mem_ stable) and no in-flight background
  // task (no concurrent flush of the same sealed memtable). Both waits
  // drop the lock, so loop until both hold at once.
  while (!writers_.empty() || bg_scheduled_) {
    WaitWritersIdleLocked(l);
    WaitBackgroundIdleLocked(l);
  }
  if (mem_->num_entries() > 0) {
    VELOCE_RETURN_IF_ERROR(HandleForegroundFailureLocked(RotateMemtableLocked()));
  }
  while (!imm_.empty()) {
    VELOCE_RETURN_IF_ERROR(HandleForegroundFailureLocked(
        FlushOldestImm(l, /*unlock=*/false)));
  }
  return Status::OK();
}

uint64_t Engine::MaxBytesForLevel(int level) const {
  uint64_t max = options_.level_base_bytes;
  for (int i = 1; i < level; ++i) max *= 10;
  return max;
}

Status Engine::CompactOneStep(std::unique_lock<std::mutex>* l) {
  if (static_cast<int>(levels_[0].size()) >= options_.l0_compaction_trigger) {
    return CompactL0(l);
  }
  for (int level = 1; level < kNumLevels - 1; ++level) {
    if (LevelBytesLocked(level) > MaxBytesForLevel(level)) {
      return CompactLevel(level, l);
    }
  }
  return Status::OK();
}

Status Engine::CompactAll() {
  std::unique_lock<std::mutex> l(mu_);
  VELOCE_RETURN_IF_ERROR(FlushAllLocked(l));
  if (!levels_[0].empty()) {
    VELOCE_RETURN_IF_ERROR(HandleForegroundFailureLocked(CompactL0(nullptr)));
  }
  for (int level = 1; level < kNumLevels - 1; ++level) {
    while (LevelBytesLocked(level) > MaxBytesForLevel(level)) {
      VELOCE_RETURN_IF_ERROR(HandleForegroundFailureLocked(CompactLevel(level, nullptr)));
    }
  }
  return Status::OK();
}

Engine::FileList Engine::OverlappingFiles(int level, Slice smallest_user,
                                          Slice largest_user) const {
  FileList out;
  for (const auto& f : levels_[level]) {
    const Slice file_small = ExtractUserKey(Slice(f->smallest));
    const Slice file_large = ExtractUserKey(Slice(f->largest));
    if (file_large < smallest_user || file_small > largest_user) continue;
    out.push_back(f);
  }
  return out;
}

Status Engine::CompactL0(std::unique_lock<std::mutex>* l) {
  if (levels_[0].empty()) return Status::OK();
  FileList upper = levels_[0];
  std::string smallest, largest;
  for (const auto& f : upper) {
    const std::string su = ExtractUserKey(Slice(f->smallest)).ToString();
    const std::string lu = ExtractUserKey(Slice(f->largest)).ToString();
    if (smallest.empty() || su < smallest) smallest = su;
    if (largest.empty() || lu > largest) largest = lu;
  }
  FileList lower = OverlappingFiles(1, Slice(smallest), Slice(largest));
  return DoCompaction(upper, 0, lower, 1, l);
}

Status Engine::CompactLevel(int level, std::unique_lock<std::mutex>* l) {
  if (levels_[level].empty()) return Status::OK();
  // Round-robin file pick within the level.
  const size_t idx = compact_pointer_[level] % levels_[level].size();
  compact_pointer_[level] = idx + 1;
  FileList upper = {levels_[level][idx]};
  const Slice su = ExtractUserKey(Slice(upper[0]->smallest));
  const Slice lu = ExtractUserKey(Slice(upper[0]->largest));
  FileList lower = OverlappingFiles(level + 1, su, lu);
  return DoCompaction(upper, level, lower, level + 1, l);
}

SequenceNumber Engine::OldestPinnedSeqLocked() const {
  return pinned_seqs_.empty() ? kMaxSequenceNumber : *pinned_seqs_.begin();
}

Status Engine::DoCompaction(const FileList& inputs_upper, int upper_level,
                            const FileList& inputs_lower, int output_level,
                            std::unique_lock<std::mutex>* l) {
  compactions_c_->Inc();
  const SequenceNumber oldest_pinned = OldestPinnedSeqLocked();
  const bool bottom = output_level == kNumLevels - 1;

  std::vector<std::unique_ptr<InternalIterator>> children;
  for (const auto& f : inputs_upper) {
    children.push_back(f->table->NewIterator());
    compact_read_bytes_c_->Inc(f->file_size);
  }
  for (const auto& f : inputs_lower) {
    children.push_back(f->table->NewIterator());
    compact_read_bytes_c_->Inc(f->file_size);
  }
  auto merged = NewMergingIterator(std::move(children));

  // Merge/build phase. With `l` supplied it runs unlocked: the inputs are
  // pinned by shared_ptr, compactions are serialized with other background
  // work, and oldest_pinned captured above stays conservative — iterators
  // pinned after the unlock only see snapshots at least as new.
  if (l != nullptr) l->unlock();
  FileList outputs;
  std::unique_ptr<TableBuilder> builder;
  auto merge_status = [&]() -> Status {
    auto finish_output = [&]() -> Status {
      if (builder == nullptr) return Status::OK();
      auto meta = outputs.back();
      VELOCE_RETURN_IF_ERROR(builder->Finish());
      meta->file_size = builder->file_size();
      meta->smallest = builder->smallest();
      meta->largest = builder->largest();
      compact_write_bytes_c_->Inc(meta->file_size);
      std::unique_ptr<RandomAccessFile> file;
      VELOCE_RETURN_IF_ERROR(env_->NewRandomAccessFile(TableFileName(meta->number), &file));
      VELOCE_ASSIGN_OR_RETURN(meta->table,
                              Table::Open(std::move(file), block_cache_.get(), meta->number));
      builder.reset();
      return Status::OK();
    };

    std::string prev_user_key;
    bool has_prev = false;
    bool prev_dropped_boundary = false;  // newest version <= oldest_pinned seen
    for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
      const Slice ikey = merged->key();
      const Slice user_key = ExtractUserKey(ikey);
      const SequenceNumber seq = ExtractSequence(ikey);
      const ValueType type = ExtractValueType(ikey);

      bool drop = false;
      if (has_prev && user_key == Slice(prev_user_key)) {
        // An earlier (newer) version of this user key was already emitted or
        // established as the visible version for all pinned snapshots.
        if (prev_dropped_boundary) drop = true;
      }
      if (!drop) {
        prev_user_key.assign(user_key.data(), user_key.size());
        has_prev = true;
        prev_dropped_boundary = seq <= oldest_pinned;
        if (type == ValueType::kDeletion && bottom && seq <= oldest_pinned) {
          // Tombstone at the bottom: nothing deeper can resurrect the key.
          drop = true;
        }
      }
      if (drop) continue;

      if (builder == nullptr) {
        auto meta = std::make_shared<FileMeta>();
        meta->number = next_file_number_.fetch_add(1, std::memory_order_relaxed);
        std::unique_ptr<WritableFile> file;
        VELOCE_RETURN_IF_ERROR(env_->NewWritableFile(TableFileName(meta->number), &file));
        builder = std::make_unique<TableBuilder>(std::move(file), MakeTableOptions(options_));
        outputs.push_back(std::move(meta));
      }
      VELOCE_RETURN_IF_ERROR(builder->Add(ikey, merged->value()));
      if (builder->file_size() + options_.block_bytes >= options_.sstable_target_bytes) {
        VELOCE_RETURN_IF_ERROR(finish_output());
      }
    }
    return finish_output();
  }();
  if (l != nullptr) l->lock();
  VELOCE_RETURN_IF_ERROR(merge_status);

  // Install (locked): remove inputs from their levels, add outputs.
  auto remove_from = [](FileList* list, const FileList& gone) {
    list->erase(std::remove_if(list->begin(), list->end(),
                               [&](const std::shared_ptr<FileMeta>& f) {
                                 for (const auto& g : gone) {
                                   if (g->number == f->number) return true;
                                 }
                                 return false;
                               }),
                list->end());
  };
  remove_from(&levels_[upper_level], inputs_upper);
  remove_from(&levels_[output_level], inputs_lower);
  for (const auto& f : outputs) levels_[output_level].push_back(f);
  std::sort(levels_[output_level].begin(), levels_[output_level].end(),
            [](const auto& a, const auto& b) {
              return Slice(a->smallest) < Slice(b->smallest);
            });
  VELOCE_RETURN_IF_ERROR(WriteManifest());
  for (const auto& f : inputs_upper) {
    (void)env_->DeleteFile(TableFileName(f->number));
    if (block_cache_ != nullptr) block_cache_->EvictFile(f->number);
  }
  for (const auto& f : inputs_lower) {
    (void)env_->DeleteFile(TableFileName(f->number));
    if (block_cache_ != nullptr) block_cache_->EvictFile(f->number);
  }
  return Status::OK();
}

Status Engine::Get(Slice key, std::string* value) {
  bool found = false;
  return GetVisible(key, value, &found);
}

Status Engine::GetVisible(Slice key, std::string* value, bool* found) {
  std::lock_guard<std::mutex> l(mu_);
  return GetLocked(key, last_seq_.load(std::memory_order_acquire), value, found);
}

Status Engine::GetLocked(Slice key, SequenceNumber snapshot, std::string* value,
                         bool* found) {
  *found = false;
  bool is_deleted = false;
  if (mem_->Get(key, snapshot, value, &is_deleted)) {
    *found = true;
    if (is_deleted) return Status::NotFound("deleted");
    return Status::OK();
  }
  // Sealed memtables hold data newer than any SSTable; newest first.
  for (auto it = imm_.rbegin(); it != imm_.rend(); ++it) {
    if (it->mem->Get(key, snapshot, value, &is_deleted)) {
      *found = true;
      if (is_deleted) return Status::NotFound("deleted");
      return Status::OK();
    }
  }
  // L0: newest file first; first hit wins (files are seq-ordered). Deeper
  // levels hold strictly older data, so the first hit at any level ends the
  // search — no cross-level merge on the point-read path.
  VELOCE_RETURN_IF_ERROR(SearchFileList(levels_[0], /*overlapping=*/true, key,
                                        Slice(), snapshot, value, found));
  if (*found) return Status::OK();
  for (int level = 1; level < kNumLevels; ++level) {
    VELOCE_RETURN_IF_ERROR(
        SearchFileList(levels_[level], false, key, Slice(), snapshot, value, found));
    if (*found) return Status::OK();
  }
  return Status::NotFound("key not found");
}

Status Engine::SearchFileList(const FileList& files, bool overlapping, Slice user_key,
                              Slice bloom_prefix, SequenceNumber snapshot,
                              std::string* value, bool* found) {
  *found = false;
  const std::string lookup = MakeInternalKey(user_key, snapshot, ValueType::kValue);
  if (bloom_prefix.empty()) {
    bloom_prefix = options_.prefix_extractor != nullptr
                       ? options_.prefix_extractor(user_key)
                       : user_key;
  }
  for (const auto& f : files) {
    const Slice file_small = ExtractUserKey(Slice(f->smallest));
    const Slice file_large = ExtractUserKey(Slice(f->largest));
    if (user_key < file_small || user_key > file_large) {
      tables_pruned_c_->Inc();
      continue;
    }
    const bool has_filter = f->table->has_filter();
    if (has_filter) {
      bloom_checked_c_->Inc();
      if (!f->table->MayContainPrefix(bloom_prefix)) {
        bloom_useful_c_->Inc();
        if (!overlapping) return Status::OK();  // sorted level: key absent
        continue;
      }
    }
    std::string fkey, fvalue;
    Status s = f->table->SeekEntry(Slice(lookup), &fkey, &fvalue);
    const bool miss = s.IsNotFound() ||
                      (s.ok() && ExtractUserKey(Slice(fkey)) != user_key);
    if (miss) {
      // The filter passed this table yet no version of the key exists here:
      // a bloom false positive (only chargeable when the extractor maps the
      // probe prefix 1:1 to this user key, which it does for exact keys).
      if (has_filter) bloom_false_positive_c_->Inc();
      if (!overlapping) return Status::OK();
      continue;
    }
    VELOCE_RETURN_IF_ERROR(s);
    *found = true;
    if (ExtractValueType(Slice(fkey)) == ValueType::kDeletion) {
      return Status::NotFound("deleted");
    }
    *value = std::move(fvalue);
    return Status::OK();
  }
  return Status::OK();
}

/// Iterator wrapper that pins a sequence number for snapshot-consistent
/// reads and unpins on destruction.
class Engine::PinnedIterator final : public Iterator {
 public:
  PinnedIterator(Engine* engine, std::unique_ptr<Iterator> inner, SequenceNumber seq)
      : engine_(engine), inner_(std::move(inner)), seq_(seq) {}

  ~PinnedIterator() override {
    std::lock_guard<std::mutex> l(engine_->mu_);
    engine_->pinned_seqs_.erase(engine_->pinned_seqs_.find(seq_));
  }

  bool Valid() const override { return inner_->Valid(); }
  void SeekToFirst() override { inner_->SeekToFirst(); }
  void Seek(Slice target) override { inner_->Seek(target); }
  void Next() override { inner_->Next(); }
  Slice key() const override { return inner_->key(); }
  Slice value() const override { return inner_->value(); }

 private:
  Engine* engine_;
  std::unique_ptr<Iterator> inner_;
  SequenceNumber seq_;
};

/// InternalIterator over one SSTable that defers opening a table iterator
/// (and therefore any block read) until the table is actually positioned.
/// A Seek whose target sorts past the table's largest key is rejected on
/// manifest metadata alone — the table contributes nothing at or after the
/// target, so it never gets opened at all.
class Engine::LazyTableIterator final : public InternalIterator {
 public:
  explicit LazyTableIterator(std::shared_ptr<FileMeta> meta)
      : meta_(std::move(meta)) {}

  bool Valid() const override { return it_ != nullptr && it_->Valid(); }
  void SeekToFirst() override {
    Materialize();
    it_->SeekToFirst();
  }
  void Seek(Slice target) override {
    if (it_ == nullptr && CompareInternalKey(target, Slice(meta_->largest)) > 0) {
      return;  // stays !Valid(); the table is never opened
    }
    Materialize();
    it_->Seek(target);
  }
  void Next() override { it_->Next(); }
  Slice key() const override { return it_->key(); }
  Slice value() const override { return it_->value(); }

 private:
  void Materialize() {
    if (it_ == nullptr) it_ = meta_->table->NewIterator();
  }

  std::shared_ptr<FileMeta> meta_;  // keeps the Table alive
  std::unique_ptr<InternalIterator> it_;
};

/// User-level iterator that confines its inner iterator to [lower, upper):
/// SeekToFirst positions at lower, Seek clamps into the bounds, and Valid
/// turns false once a key reaches upper (empty upper = unbounded).
class Engine::BoundedIterator final : public Iterator {
 public:
  BoundedIterator(std::unique_ptr<Iterator> inner, std::string lower,
                  std::string upper)
      : inner_(std::move(inner)), lower_(std::move(lower)),
        upper_(std::move(upper)) {}

  bool Valid() const override {
    return inner_->Valid() && (upper_.empty() || inner_->key() < Slice(upper_));
  }
  void SeekToFirst() override { inner_->Seek(Slice(lower_)); }
  void Seek(Slice target) override {
    inner_->Seek(target < Slice(lower_) ? Slice(lower_) : target);
  }
  void Next() override { inner_->Next(); }
  Slice key() const override { return inner_->key(); }
  Slice value() const override { return inner_->value(); }

 private:
  std::unique_ptr<Iterator> inner_;
  const std::string lower_;
  const std::string upper_;
};

std::unique_ptr<Iterator> Engine::NewIterator() {
  return NewBoundedIterator(Slice(), Slice());
}

std::unique_ptr<Iterator> Engine::NewBoundedIterator(Slice lower, Slice upper,
                                                     Slice bloom_prefix) {
  std::lock_guard<std::mutex> l(mu_);
  const SequenceNumber snapshot = last_seq_.load(std::memory_order_acquire);
  pinned_seqs_.insert(snapshot);

  std::vector<std::unique_ptr<InternalIterator>> children;
  // Memtables hold the newest data; shared_ptr keeps each alive while the
  // iterator exists even if the engine seals/flushes and swaps them out.
  struct MemHolderIter final : public InternalIterator {
    std::shared_ptr<MemTable> mem;
    std::unique_ptr<InternalIterator> it;
    bool Valid() const override { return it->Valid(); }
    void SeekToFirst() override { it->SeekToFirst(); }
    void Seek(Slice target) override { it->Seek(target); }
    void Next() override { it->Next(); }
    Slice key() const override { return it->key(); }
    Slice value() const override { return it->value(); }
  };
  auto add_mem = [&children](const std::shared_ptr<MemTable>& mem) {
    auto holder = std::make_unique<MemHolderIter>();
    holder->mem = mem;
    holder->it = mem->NewIterator();
    children.push_back(std::move(holder));
  };
  add_mem(mem_);
  // Sealed memtables, newest first (merge ties break toward lower index).
  for (auto it = imm_.rbegin(); it != imm_.rend(); ++it) {
    add_mem(it->mem);
  }

  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_[level]) {
      // Key-range pruning: a table whose [smallest, largest] user-key span
      // does not intersect [lower, upper) can never contribute an entry.
      if (!lower.empty() && ExtractUserKey(Slice(f->largest)) < lower) {
        tables_pruned_c_->Inc();
        continue;
      }
      if (!upper.empty() && ExtractUserKey(Slice(f->smallest)) >= upper) {
        tables_pruned_c_->Inc();
        continue;
      }
      // For single-prefix reads the caller passes the extracted bloom
      // prefix; a negative filter probe proves the table holds no slot of
      // that logical key, so it is dropped before any I/O.
      if (!bloom_prefix.empty() && f->table->has_filter()) {
        bloom_checked_c_->Inc();
        if (!f->table->MayContainPrefix(bloom_prefix)) {
          bloom_useful_c_->Inc();
          continue;
        }
      }
      children.push_back(std::make_unique<LazyTableIterator>(f));
    }
  }
  auto user_iter = NewUserIterator(NewMergingIterator(std::move(children)), snapshot);
  auto bounded = std::make_unique<BoundedIterator>(
      std::move(user_iter), lower.ToString(), upper.ToString());
  return std::make_unique<PinnedIterator>(this, std::move(bounded), snapshot);
}

int Engine::NumFilesAtLevel(int level) const {
  std::lock_guard<std::mutex> l(mu_);
  return static_cast<int>(levels_[level].size());
}

uint64_t Engine::LevelBytesLocked(int level) const {
  uint64_t total = 0;
  for (const auto& f : levels_[level]) total += f->file_size;
  return total;
}

uint64_t Engine::LevelBytes(int level) const {
  std::lock_guard<std::mutex> l(mu_);
  return LevelBytesLocked(level);
}

uint64_t Engine::ApproximateSize() const {
  std::lock_guard<std::mutex> l(mu_);
  uint64_t total = mem_->ApproximateMemoryUsage();
  for (const auto& imm : imm_) total += imm.mem->ApproximateMemoryUsage();
  for (int level = 0; level < kNumLevels; ++level) total += LevelBytesLocked(level);
  return total;
}

}  // namespace veloce::storage
