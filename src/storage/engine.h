#ifndef VELOCE_STORAGE_ENGINE_H_
#define VELOCE_STORAGE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "obs/obs_context.h"
#include "storage/dbformat.h"
#include "storage/block_cache.h"
#include "storage/env.h"
#include "storage/iterator.h"
#include "storage/memtable.h"
#include "storage/sstable.h"
#include "storage/wal.h"
#include "storage/write_batch.h"

namespace veloce::storage {

class BackgroundExecutor;
class InlineExecutor;

/// Cumulative counters exposed for admission control's capacity estimation
/// (Section 5.1.3): the WQ token bucket refill rate is derived from flush
/// and compaction throughput, and the per-write linear models (a*x + b) are
/// fit against total_bytes_written vs ingest_bytes.
///
/// This struct is a read-only snapshot view: the source of truth is the
/// engine's `veloce_storage_*` series in its obs::MetricsRegistry, and
/// Engine::stats() materializes them here for typed consumers.
struct EngineStats {
  uint64_t ingest_bytes = 0;         ///< user payload accepted into the engine
  uint64_t wal_bytes = 0;            ///< bytes appended to the write-ahead log
  uint64_t flush_bytes = 0;          ///< bytes written flushing memtables to L0
  uint64_t compact_read_bytes = 0;
  uint64_t compact_write_bytes = 0;
  uint64_t num_flushes = 0;
  uint64_t num_compactions = 0;
  // Point-read fast path: filter and pruning effectiveness.
  uint64_t bloom_checked = 0;         ///< bloom probes issued
  uint64_t bloom_useful = 0;          ///< tables skipped by a negative probe
  uint64_t bloom_false_positive = 0;  ///< probes that passed but found nothing
  uint64_t tables_pruned = 0;         ///< tables skipped by key-range pruning
  // Write path backpressure: writers delayed because background flush or
  // compaction could not keep up. Admission control discounts its capacity
  // estimate by stall time (a stalling engine is past its real capacity).
  uint64_t write_stalls = 0;   ///< writes that hit a stall
  double stall_seconds = 0;    ///< cumulative seconds writers spent stalled

  uint64_t total_bytes_written() const {
    return wal_bytes + flush_bytes + compact_write_bytes;
  }
};

struct EngineOptions {
  /// Filesystem to use; nullptr means a private in-memory Env.
  Env* env = nullptr;
  std::string dir = "veloce-db";
  size_t memtable_bytes = 4 << 20;
  size_t sstable_target_bytes = 2 << 20;
  size_t block_bytes = 4096;
  /// L0 file count that triggers an L0->L1 compaction.
  int l0_compaction_trigger = 4;
  /// Capacity of the verified-data-block LRU cache (0 disables it).
  size_t block_cache_bytes = 8 << 20;
  /// Lock shards in the block cache (each gets block_cache_bytes/N budget).
  size_t block_cache_shards = BlockCache::kDefaultShards;
  /// Build bloom filter blocks in new SSTables and consult them on point
  /// reads. Off = legacy v1 tables, every point read probes data blocks.
  bool bloom_filters = true;
  int bloom_bits_per_key = 10;
  /// Maps engine user keys to the prefix blooms are built over and probed
  /// with (see sstable.h). The KV layer installs an extractor that strips
  /// the MVCC timestamp suffix so one probe covers a logical key's intent
  /// slot and every version. nullptr = whole user key.
  PrefixExtractor prefix_extractor = nullptr;
  /// Size of L1 before leveled compaction kicks in; each deeper level is
  /// 10x larger.
  uint64_t level_base_bytes = 8ull << 20;

  // ---- Concurrent write path ----
  /// Runs flushes and compactions off the write path. Not owned; must
  /// outlive the engine. nullptr = the engine owns an InlineExecutor that
  /// the write leader drains at the end of each write, so flush and
  /// compaction finish inside the triggering write (deterministic without
  /// any event loop or thread pool).
  BackgroundExecutor* background_executor = nullptr;
  /// Sync the WAL file on every commit. Group commit amortizes the sync
  /// over the whole group, which is where its multi-writer win comes from.
  bool sync_wal = false;
  /// Sealed memtables allowed to queue for flush before writers stall.
  int max_immutable_memtables = 2;
  /// L0 file count at which writers stall until compaction catches up.
  int l0_stall_files = 12;

  // ---- Fault tolerance (docs/ROBUSTNESS.md) ----
  /// Background flush/compaction failures classified transient (I/O flakes,
  /// unreachable storage) are retried with capped exponential backoff; after
  /// this many failed retries the engine enters read-only degraded mode.
  int max_bg_retries = 5;
  /// First retry delay; doubles per attempt up to the cap.
  Nanos bg_retry_base_backoff = 10 * kMilli;
  Nanos bg_retry_max_backoff = 2 * kSecond;

  /// Telemetry injection. When obs.metrics is null the engine owns a
  /// private registry, so stats() stays per-instance-correct without any
  /// wiring. When several engines share an injected registry, set a
  /// distinct `metrics_instance` per engine (exported as label node=...).
  obs::ObsContext obs;
  std::string metrics_instance;
};

/// Engine is the LSM storage engine underlying every KV node — the
/// from-scratch stand-in for Pebble. Writes go WAL -> memtable -> sealed
/// (immutable) memtables -> flushed L0 SSTables -> leveled compactions (L0
/// may overlap; L1+ are sorted runs).
///
/// Write path (docs/STORAGE.md has the full protocol). There is one:
///  * Group commit: writers queue under the engine mutex; the front writer
///    leads, concatenates the group's batches, and performs the WAL append,
///    optional sync, and memtable insert with the mutex RELEASED, so reads
///    and background work proceed during commit I/O.
///  * When the memtable fills it is sealed into the immutable list together
///    with its WAL and a fresh memtable+WAL take over; a background task
///    flushes sealed memtables to L0 and runs compactions through the
///    pluggable BackgroundExecutor. Reads merge mem + immutables + levels.
///  * Writers stall (with the delay surfaced to admission control) when
///    sealed memtables or L0 files pile past their thresholds.
/// Opened without an executor, the engine owns an InlineExecutor and the
/// write leader drains it right after releasing the mutex, so the flush
/// and compactions a write triggers finish before that write returns —
/// deterministic with zero wiring, through the same code.
///
/// Thread-safe. One mutex guards engine state; commit I/O and background
/// table builds run outside it.
class Engine {
 public:
  /// Opens (and recovers) an engine. If options.env is null the engine owns
  /// a fresh in-memory Env.
  static StatusOr<std::unique_ptr<Engine>> Open(EngineOptions options);

  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Status Put(Slice key, Slice value);
  Status Delete(Slice key);
  /// Applies all operations in the batch atomically: the batch is validated
  /// up front, so a malformed batch changes nothing (no WAL record, no
  /// memtable entries, sequence numbers unconsumed).
  Status Write(const WriteBatch& batch);

  /// Reads the newest visible version of `key`. NotFound if absent/deleted.
  Status Get(Slice key, std::string* value);

  /// Point-read fast path: like Get, but reports "present as a tombstone"
  /// and "absent" distinctly via *found (value reads that need to tell the
  /// difference avoid a second probe). Prunes tables by key range, consults
  /// bloom filters, and stops at the first hit instead of merging levels.
  Status GetVisible(Slice key, std::string* value, bool* found);

  /// Point-in-time iterator over user keys (hides tombstones and shadowed
  /// versions). Pins the current sequence number until destroyed.
  std::unique_ptr<Iterator> NewIterator();

  /// Bounded point-in-time iterator over user keys in [lower, upper) —
  /// empty upper means unbounded. Only tables whose [smallest, largest]
  /// range overlaps the bounds contribute, and their iterators materialize
  /// lazily so tables that never get positioned read no blocks. When
  /// `bloom_prefix` is non-empty (an already-extracted point-read prefix,
  /// e.g. one MVCC logical key), each candidate table's filter is consulted
  /// first and negative tables are skipped entirely. SeekToFirst positions
  /// at `lower`; Seek clamps its target into the bounds.
  std::unique_ptr<Iterator> NewBoundedIterator(Slice lower, Slice upper,
                                               Slice bloom_prefix = Slice());

  /// Forces everything buffered (sealed memtables, then the active
  /// memtable) to L0. Waits out in-flight background work first.
  Status Flush();
  /// Runs compactions until no level is over its trigger.
  Status CompactAll();

  // ---- Error handling (RocksDB-ErrorHandler-style; docs/ROBUSTNESS.md) ----
  /// Severity classification: transient errors (I/O flakes, unreachable
  /// storage) are worth retrying; anything else (corruption, logic errors)
  /// is hard and forces degraded mode.
  static bool IsTransientError(const Status& s);
  /// True while the engine is in read-only degraded mode: reads and
  /// iterators keep working off the installed state, writes return
  /// Unavailable. Entered when background work fails hard (or exhausts its
  /// transient-retry budget).
  bool degraded() const;
  /// The error that put the engine into degraded mode (OK when healthy).
  Status background_error() const;
  /// Attempts to leave degraded mode: re-drives the pending flush/compaction
  /// work synchronously and, on success, clears the error and resumes
  /// background scheduling. Returns the (still) failing status if the fault
  /// has not cleared — the engine stays degraded and Resume() can be called
  /// again.
  Status Resume();

  /// Cumulative engine counters, materialized from the metrics registry.
  const EngineStats& stats() const;
  /// The registry this engine's `veloce_storage_*` series live in (the
  /// injected one, or the engine's private default).
  obs::MetricsRegistry* metrics() const { return metrics_; }
  const BlockCache* block_cache() const { return block_cache_.get(); }
  int NumFilesAtLevel(int level) const;
  uint64_t LevelBytes(int level) const;
  /// Sealed memtables awaiting background flush.
  int NumImmutableMemTables() const {
    return static_cast<int>(imm_count_.load(std::memory_order_relaxed));
  }
  /// Approximate total on-disk + memtable footprint.
  uint64_t ApproximateSize() const;
  SequenceNumber LastSequence() const {
    return last_seq_.load(std::memory_order_acquire);
  }

  static constexpr int kNumLevels = 7;

 private:
  struct FileMeta {
    uint64_t number = 0;
    uint64_t file_size = 0;
    std::string smallest, largest;  // internal keys
    std::shared_ptr<Table> table;
  };
  using FileList = std::vector<std::shared_ptr<FileMeta>>;

  /// One queued write. The front writer of `writers_` is the group leader.
  struct Writer {
    explicit Writer(const WriteBatch* b) : batch(b) {}
    const WriteBatch* batch;
    Status status;
    bool done = false;
    std::condition_variable cv;
  };

  /// A sealed memtable queued for flush, with the WAL that covers it (the
  /// WAL is deleted only after the memtable is durable in L0).
  struct ImmMem {
    std::shared_ptr<MemTable> mem;
    uint64_t wal_number = 0;
  };

  /// Cancellation token shared with scheduled background closures: the
  /// destructor flips `alive` so tasks that outlive the engine become
  /// no-ops (taking the token mutex also waits out an in-flight task).
  struct BgToken {
    std::mutex mu;
    bool alive = true;
  };

  Engine() = default;

  void InitMetrics();
  Status Recover();
  Status ReplayWal(const std::string& fname);
  Status NewWal();
  Status WriteManifest();
  Status LoadManifest();

  std::string TableFileName(uint64_t number) const;
  std::string WalFileName(uint64_t number) const;
  std::string ManifestFileName() const;

  // Write path.
  /// Maps bg_error_ to the status writes surface while degraded.
  Status DegradedStatusLocked() const;
  /// Latches `s` as the background error and flips the engine into
  /// read-only degraded mode (idempotent).
  void EnterDegradedLocked(const Status& s);
  /// Classifies a foreground flush/compaction failure: hard errors poison
  /// the engine into degraded mode before surfacing; transient ones pass
  /// through untouched (the caller's next attempt simply retries).
  Status HandleForegroundFailureLocked(Status s);

  Status WriteGroupCommit(std::unique_lock<std::mutex>& l, Writer* w);
  /// Seals a full memtable, stalling first if the immutable list or L0 is
  /// over its threshold. May release+reacquire `l`; the caller must be the
  /// front writer (or hold writers idle) so the active memtable cannot
  /// change underneath it.
  Status MakeRoomForWriteLocked(std::unique_lock<std::mutex>& l);
  /// Seals mem_ (+ its WAL) into imm_ and starts a fresh memtable + WAL.
  Status RotateMemtableLocked();
  void MaybeScheduleBackgroundLocked();
  bool HasBackgroundWorkLocked() const;
  /// One unit of background work: flush the oldest sealed memtable, else
  /// one compaction step. Reschedules itself while work remains.
  void BackgroundWork();
  /// Flushes the oldest sealed memtable to L0. When `unlock` is set the
  /// table build runs with `l` released (only safe from the serialized
  /// background task).
  Status FlushOldestImm(std::unique_lock<std::mutex>& l, bool unlock);
  /// Waits until no write is queued (so mem_ is quiescent).
  void WaitWritersIdleLocked(std::unique_lock<std::mutex>& l);
  /// Waits until no background task is queued or running. Single-threaded
  /// executors are assisted (their queue is drained inline).
  void WaitBackgroundIdleLocked(std::unique_lock<std::mutex>& l);
  /// Quiesces writers and background work, then seals the active memtable
  /// and flushes every sealed memtable to L0 in the foreground.
  Status FlushAllLocked(std::unique_lock<std::mutex>& l);

  /// Builds one L0/compaction-output SSTable from a memtable.
  Status BuildMemTable(const MemTable& mem, FileMeta* meta);

  /// One compaction step if any level is over its trigger.
  Status CompactOneStep(std::unique_lock<std::mutex>* l);
  /// Compacts L0 (all files) + overlapping L1 into L1.
  Status CompactL0(std::unique_lock<std::mutex>* l);
  /// Compacts one file from `level` into level+1.
  Status CompactLevel(int level, std::unique_lock<std::mutex>* l);
  /// When `l` is non-null the merge/build phase runs with it released
  /// (inputs are pinned by shared_ptr; install happens relocked).
  Status DoCompaction(const FileList& inputs_upper, int upper_level,
                      const FileList& inputs_lower, int output_level,
                      std::unique_lock<std::mutex>* l);
  FileList OverlappingFiles(int level, Slice smallest_user, Slice largest_user) const;
  uint64_t MaxBytesForLevel(int level) const;
  uint64_t LevelBytesLocked(int level) const;
  SequenceNumber OldestPinnedSeqLocked() const;

  Status GetLocked(Slice key, SequenceNumber snapshot, std::string* value,
                   bool* found);
  Status SearchFileList(const FileList& files, bool overlapping, Slice user_key,
                        Slice bloom_prefix, SequenceNumber snapshot,
                        std::string* value, bool* found);

  class PinnedIterator;
  class LazyTableIterator;
  class BoundedIterator;

  EngineOptions options_;
  std::unique_ptr<Env> owned_env_;
  Env* env_ = nullptr;
  std::unique_ptr<BlockCache> block_cache_;
  BackgroundExecutor* executor_ = nullptr;
  /// Set when opened without an executor; executor_ then points at it.
  std::unique_ptr<InlineExecutor> inline_executor_;

  mutable std::mutex mu_;
  std::shared_ptr<MemTable> mem_;
  std::deque<ImmMem> imm_;  ///< sealed memtables, oldest first
  std::atomic<size_t> imm_count_{0};
  std::unique_ptr<LogWriter> wal_;
  uint64_t wal_number_ = 0;
  std::atomic<uint64_t> next_file_number_{1};
  std::atomic<SequenceNumber> last_seq_{0};
  FileList levels_[kNumLevels];  // L0 newest-first; L1+ sorted by smallest
  size_t compact_pointer_[kNumLevels] = {};
  std::multiset<SequenceNumber> pinned_seqs_;

  // Group commit state.
  std::deque<Writer*> writers_;        ///< front = leader
  WriteBatch tmp_batch_;               ///< leader's scratch group batch
  std::condition_variable writers_empty_cv_;

  // Background state.
  bool bg_scheduled_ = false;  ///< a background task is queued or running
  uint64_t bg_schedules_ = 0;  ///< background tasks scheduled so far
  bool shutting_down_ = false;
  /// Hard background error: while set the engine is in read-only degraded
  /// mode (writes return Unavailable, reads keep working). Cleared only by
  /// Resume(). Transient failures never land here until their retry budget
  /// (max_bg_retries, exponential backoff) is exhausted.
  Status bg_error_;
  int bg_retry_attempts_ = 0;  ///< consecutive transient bg failures
  std::condition_variable bg_cv_;  ///< signalled when background work completes
  std::shared_ptr<BgToken> bg_token_ = std::make_shared<BgToken>();

  // Metric handles (hot-path increments are lock-free; see obs/metrics.h).
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* ingest_bytes_c_ = nullptr;
  obs::Counter* wal_bytes_c_ = nullptr;
  obs::Counter* flush_bytes_c_ = nullptr;
  obs::Counter* compact_read_bytes_c_ = nullptr;
  obs::Counter* compact_write_bytes_c_ = nullptr;
  obs::Counter* flushes_c_ = nullptr;
  obs::Counter* compactions_c_ = nullptr;
  obs::Counter* bloom_checked_c_ = nullptr;
  obs::Counter* bloom_useful_c_ = nullptr;
  obs::Counter* bloom_false_positive_c_ = nullptr;
  obs::Counter* tables_pruned_c_ = nullptr;
  obs::Counter* write_stalls_c_ = nullptr;
  obs::Gauge* stall_seconds_g_ = nullptr;  ///< cumulative; Gauge for fractions
  obs::HistogramMetric* commit_group_size_h_ = nullptr;
  // Fault tolerance: degraded-mode transitions, bg retry churn, WAL repair.
  obs::Gauge* degraded_g_ = nullptr;
  obs::Counter* degraded_entries_c_ = nullptr;
  obs::Counter* degraded_exits_c_ = nullptr;
  obs::Counter* bg_retries_c_ = nullptr;
  obs::HistogramMetric* bg_retry_backoff_h_ = nullptr;
  obs::Counter* wal_truncated_c_ = nullptr;
  obs::MetricsRegistry::CallbackToken gauge_callback_;
  mutable EngineStats stats_snapshot_;
};

}  // namespace veloce::storage

#endif  // VELOCE_STORAGE_ENGINE_H_
