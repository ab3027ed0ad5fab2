/**
 * @file
 * A small work-stealing thread pool used to fan independent pipeline
 * stages (profile + synthesize one workload each) across cores. Each
 * worker owns a deque: it pushes/pops its own work LIFO for locality and
 * steals FIFO from victims when idle, so a handful of heavyweight tasks
 * spread evenly even when they are submitted in one burst. The deques
 * share one pool mutex — tasks here run for milliseconds to seconds, so
 * scheduling overhead is noise and simplicity wins over lock-free deques.
 *
 * Determinism contract: the pool schedules *execution*, never *results*.
 * parallelFor(n, fn) invokes fn(i) exactly once for every i and callers
 * write to per-index slots, so output is byte-identical regardless of
 * thread count or steal order.
 */

#ifndef BSYN_SUPPORT_THREAD_POOL_HH
#define BSYN_SUPPORT_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hh"

namespace bsyn
{

class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /**
     * Start @p threads workers. 0 means one per hardware thread.
     * A pool of 1 still runs tasks on its single worker thread, so the
     * sequential path exercises the same machinery as the parallel one.
     *
     * The pool publishes a queue-depth gauge ("threadpool.tasks.pending"),
     * an executed-task counter and per-thread task counters into
     * @p metrics (null = obs::Registry::global()). Not owned; must
     * outlive the pool.
     */
    explicit ThreadPool(unsigned threads = 0,
                        obs::Registry *metrics = nullptr);

    /** Waits for remaining work, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task; returns immediately. */
    void submit(Task task);

    /** Block until every submitted task has finished. */
    void wait();

    /**
     * Run fn(0) .. fn(n-1), distributing indices across the workers, and
     * block until all are done. If invocations throw, the first captured
     * exception is rethrown here after every index has finished. Called
     * from one of this pool's own workers (nested use), it runs the
     * indices inline on the caller instead of self-deadlocking.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /** @return std::thread::hardware_concurrency(), at least 1. */
    static unsigned hardwareThreads();

  private:
    /** One worker's deque; owner pops LIFO, thieves steal FIFO. */
    struct Worker
    {
        std::deque<Task> tasks;        // guarded by mtx_
        obs::Counter *executed = nullptr; ///< tasks this thread ran
    };

    void workerLoop(size_t self);
    /** Pop own work or steal; requires mtx_ held. */
    bool takeLocked(size_t self, Task &out);

    std::vector<Worker> workers_;
    std::vector<std::thread> threads_;

    std::mutex mtx_;
    std::condition_variable workCv_; ///< signalled on submit/shutdown
    std::condition_variable idleCv_; ///< signalled when pending_ hits 0
    size_t pending_ = 0;             ///< queued + running tasks
    size_t nextVictim_ = 0;          ///< round-robin submit cursor
    bool stopping_ = false;

    obs::Gauge *pendingGauge_ = nullptr;  ///< mirrors pending_
    obs::Counter *executedTotal_ = nullptr;
};

} // namespace bsyn

#endif // BSYN_SUPPORT_THREAD_POOL_HH
