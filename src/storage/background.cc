#include "storage/background.h"

namespace veloce::storage {

void InlineExecutor::Schedule(std::function<void()> fn) {
  std::lock_guard<std::mutex> l(mu_);
  queue_.push_back(std::move(fn));
}

size_t InlineExecutor::RunQueued() {
  std::unique_lock<std::mutex> l(mu_);
  size_t ran = 0;
  while (true) {
    if (!queue_.empty()) {
      auto fn = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      l.unlock();
      fn();
      l.lock();
      --active_;
      ++ran;
      idle_cv_.notify_all();
    } else if (active_ > 0) {
      // A task running on another thread may chain more work; wait it out.
      idle_cv_.wait(l);
    } else {
      return ran;
    }
  }
}

size_t InlineExecutor::queue_depth() const {
  std::lock_guard<std::mutex> l(mu_);
  return queue_.size() + active_;
}

ThreadPoolExecutor::ThreadPoolExecutor(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    std::lock_guard<std::mutex> l(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPoolExecutor::Schedule(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> l(mu_);
    queue_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

size_t ThreadPoolExecutor::queue_depth() const {
  std::lock_guard<std::mutex> l(mu_);
  return queue_.size() + active_;
}

void ThreadPoolExecutor::Drain() {
  std::unique_lock<std::mutex> l(mu_);
  drain_cv_.wait(l, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPoolExecutor::WorkerLoop() {
  std::unique_lock<std::mutex> l(mu_);
  while (true) {
    work_cv_.wait(l, [this] { return stopping_ || !queue_.empty(); });
    // Even when stopping, finish queued tasks: engine closures are
    // cancellation-token guarded, so this never touches dead objects.
    if (queue_.empty()) return;
    auto fn = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    l.unlock();
    fn();
    l.lock();
    --active_;
    if (queue_.empty() && active_ == 0) drain_cv_.notify_all();
  }
}

}  // namespace veloce::storage
