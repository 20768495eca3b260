// Work-sharing thread pool with a two-level priority dequeue.
//
// Backs both the simulated-GPU block scheduler (each thread block becomes a
// pool task) and the multi-threaded CPU DPF baseline. All workers share one
// work queue; whichever worker is free takes the next task.
//
// The queue is two-level: kInteractive tasks dequeue before kBatch tasks,
// FIFO within each class, so worker slots freed early (e.g. by the answer
// engine skipping a cancelled request's shards) go to live interactive
// work before background work.
//
// Priority is strict only up to an aging bound: a batch task that has
// waited batch_promote_age_us is promoted — the next dequeue takes it
// ahead of pending interactive work — so a sustained interactive stream
// delays background work by at most the bound instead of starving it.
// Promotion is checked at dequeue time, which needs no timers: while
// interactive work is flowing, workers revisit the queues after every
// task; when none is flowing, batch runs immediately anyway.
//
// Locking discipline is compiler-checked: every queue and counter member
// is GPUDPF_GUARDED_BY(mu_) (src/common/thread_annotations.h), so a Clang
// -Wthread-safety build rejects any unlocked access at compile time.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace gpudpf {

// Scheduling class of one pool task. The pool dequeues kInteractive before
// kBatch; submission order is preserved inside a class.
enum class TaskPriority { kInteractive, kBatch };

class ThreadPool {
  public:
    // Default bound on how long a kBatch task can sit behind kInteractive
    // work before it is promoted (see the aging note above): long against
    // a sub-millisecond shard task, short against a serving deadline.
    static constexpr std::uint64_t kDefaultBatchPromoteAgeUs = 20'000;
    // batch_promote_age_us value that disables promotion entirely,
    // restoring strict two-level priority.
    static constexpr std::uint64_t kNeverPromoteBatch = UINT64_MAX;

    // Creates a pool with `threads` workers (0 = hardware concurrency).
    // batch_promote_age_us bounds batch-behind-interactive queueing delay
    // (kNeverPromoteBatch = strict priority).
    explicit ThreadPool(
        std::size_t threads = 0,
        std::uint64_t batch_promote_age_us = kDefaultBatchPromoteAgeUs);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t thread_count() const { return workers_.size(); }

    // Enqueues a task; tasks may not block on other pool tasks.
    void Submit(std::function<void()> fn,
                TaskPriority priority = TaskPriority::kInteractive)
        GPUDPF_EXCLUDES(mu_);

    // Blocks until every submitted task has finished.
    void Wait() GPUDPF_EXCLUDES(mu_);

    // Runs fn(i) for i in [begin, end), split into contiguous chunks across
    // up to max_parallelism workers (0 = all workers), and waits.
    void ParallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)>& fn,
                     std::size_t max_parallelism = 0);

    // Process-wide shared pool sized to the host.
    static ThreadPool& Shared();

  private:
    // One queued task: the callable plus its enqueue time, which the
    // dequeue-side aging check compares against batch_promote_age_us.
    struct QueuedTask {
        std::function<void()> fn;
        std::chrono::steady_clock::time_point enqueued;
    };
    void WorkerLoop();

    // Pops the next task of tasks_ under the pool's priority rules.
    // Pre: tasks_ not empty.
    std::function<void()> PopTask() GPUDPF_REQUIRES(mu_);

    // Immutable after the constructor returns (workers never mutate it),
    // so thread_count() reads it lock-free.
    std::vector<std::thread> workers_;
    const std::chrono::steady_clock::duration batch_promote_age_;
    Mutex mu_;
    CondVar task_cv_;
    CondVar done_cv_;
    // Index 0 = kInteractive, 1 = kBatch; dequeue scans ascending unless
    // the batch head has aged past the promotion bound.
    std::array<std::queue<QueuedTask>, 2> tasks_ GPUDPF_GUARDED_BY(mu_);
    std::size_t in_flight_ GPUDPF_GUARDED_BY(mu_) = 0;
    bool stop_ GPUDPF_GUARDED_BY(mu_) = false;
};

}  // namespace gpudpf
