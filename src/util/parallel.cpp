#include "util/parallel.hpp"

#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dam::util {

unsigned resolve_threads(unsigned threads) {
  if (threads != 0) return threads;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

void run_parallel(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  threads = resolve_threads(threads);
  if (threads > count) threads = static_cast<unsigned>(count);
  std::exception_ptr first_error = nullptr;
  if (threads == 1) {
    for (std::size_t index = 0; index < count; ++index) {
      try {
        task(index);
      } catch (...) {
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
    if (first_error != nullptr) std::rethrow_exception(first_error);
    return;
  }

  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::size_t> pending;
  };
  std::vector<WorkerQueue> queues(threads);
  // Deal round-robin so every worker starts with a spread of the grid, not
  // one contiguous (and possibly uniformly heavy) block.
  for (std::size_t index = 0; index < count; ++index) {
    queues[index % threads].pending.push_back(index);
  }

  std::mutex error_mutex;

  auto worker = [&](unsigned self) {
    for (;;) {
      std::size_t index = 0;
      bool found = false;
      {
        WorkerQueue& own = queues[self];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.pending.empty()) {
          index = own.pending.back();  // own work: LIFO, cache-warm end
          own.pending.pop_back();
          found = true;
        }
      }
      for (unsigned offset = 1; !found && offset < threads; ++offset) {
        WorkerQueue& victim = queues[(self + offset) % threads];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.pending.empty()) {
          index = victim.pending.front();  // steal from the cold end
          victim.pending.pop_front();
          found = true;
        }
      }
      // Tasks never enqueue new tasks, so one full empty scan means done.
      if (!found) return;
      try {
        task(index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned self = 1; self < threads; ++self) {
    pool.emplace_back(worker, self);
  }
  worker(0);  // the calling thread is worker 0
  for (std::thread& thread : pool) thread.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace dam::util
