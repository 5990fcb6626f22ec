#ifndef VELOCE_STORAGE_BACKGROUND_H_
#define VELOCE_STORAGE_BACKGROUND_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace veloce::storage {

/// Executes the engine's background work (memtable flushes, compactions).
///
/// The engine ships three implementations:
///  * ThreadPoolExecutor — real OS threads; flush and compaction overlap
///    foreground writes, which is what the multi-threaded write benches and
///    the TSan stress test exercise.
///  * sim::SimExecutor (src/sim/sim_executor.h) — enqueues work on the
///    discrete-event loop, so background work interleaves with simulated
///    time deterministically and the paper-figure benches stay
///    bit-reproducible.
///  * InlineExecutor — the FIFO an engine owns when it is opened without an
///    executor. The engine drains it on the write leader's thread at the
///    end of each write, so flush and compaction finish inside the write
///    that triggered them, deterministically and with zero wiring.
///
/// Contract: Schedule() must NOT run `fn` inline on the calling thread (the
/// engine schedules while holding its mutex).
class BackgroundExecutor {
 public:
  virtual ~BackgroundExecutor() = default;

  /// Enqueues `fn` to run later. Never runs it inline.
  virtual void Schedule(std::function<void()> fn) = 0;

  /// Enqueues `fn` to run roughly `delay_ns` from now — the engine's
  /// backoff between retries of a transiently failing flush/compaction.
  /// The default ignores the delay and schedules promptly, which is
  /// acceptable for thread pools (the retry just happens sooner); the sim
  /// executor overrides this to burn simulated time deterministically.
  virtual void ScheduleAfter(uint64_t delay_ns, std::function<void()> fn) {
    (void)delay_ns;
    Schedule(std::move(fn));
  }

  /// True when scheduled work cannot progress while the caller blocks
  /// (single-threaded executors). Stalled writers then assist by calling
  /// RunQueued() instead of sleeping on a condition variable — blocking
  /// would deadlock a single-threaded sim.
  virtual bool single_threaded() const = 0;

  /// Runs queued tasks on the calling thread; returns how many ran.
  /// Multi-threaded executors may return 0 (their workers make progress on
  /// their own).
  virtual size_t RunQueued() = 0;

  /// Tasks queued or running — exported as veloce_storage_bg_queue_depth.
  virtual size_t queue_depth() const = 0;
};

/// FIFO that runs its tasks only when a caller drains it with RunQueued().
/// Several threads may drain at once (concurrent writers on one engine):
/// each pops and runs tasks until the queue is empty and no task is still
/// running on another thread, so a returning drain leaves the executor idle.
class InlineExecutor final : public BackgroundExecutor {
 public:
  void Schedule(std::function<void()> fn) override;
  bool single_threaded() const override { return true; }
  size_t RunQueued() override;
  size_t queue_depth() const override;

 private:
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  ///< a task finished on some thread
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;
};

/// Fixed-size pool of worker threads draining a FIFO queue. Destruction
/// finishes every queued task before joining (engine background closures
/// no-op once their owner is gone, so drain is cheap and safe).
class ThreadPoolExecutor final : public BackgroundExecutor {
 public:
  explicit ThreadPoolExecutor(int num_threads = 2);
  ~ThreadPoolExecutor() override;

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  void Schedule(std::function<void()> fn) override;
  bool single_threaded() const override { return false; }
  size_t RunQueued() override { return 0; }
  size_t queue_depth() const override;

  /// Blocks until the queue is empty and no task is running.
  void Drain();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait for tasks
  std::condition_variable drain_cv_;  ///< Drain() waits for quiescence
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace veloce::storage

#endif  // VELOCE_STORAGE_BACKGROUND_H_
