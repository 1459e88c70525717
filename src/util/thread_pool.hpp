/**
 * @file
 * Work-stealing thread pool for batch-parallel volley processing.
 *
 * The paper's computation model is embarrassingly parallel: distinct
 * input volleys in a stream are independent by construction, and so
 * are the neurons of a column (Sec. IV's SRM0 bank), though a whole
 * column fires in less time than a pool hand-off costs, so the batch
 * APIs split their work by volley. ThreadPool is the shared substrate:
 * a fixed set of workers, one task deque per worker, and stealing from
 * the front of a victim's deque when a worker's own deque runs dry.
 *
 * Determinism contract: parallelFor() partitions [begin, end) into a
 * fixed chunk layout that depends only on the range, the grain and the
 * runner cap — never on scheduling. Callers that write result[i] from
 * body(i) therefore produce bit-identical output for any thread count,
 * which is what the TNN batch APIs (TnnNetwork::processBatch,
 * Network::evaluateBatch, Column::trainBatch) build their "parallel ==
 * serial" guarantee on.
 */

#ifndef ST_UTIL_THREAD_POOL_HPP
#define ST_UTIL_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace st {

/**
 * A fixed-size work-stealing thread pool.
 *
 * A pool of size 0 is valid and degenerates to inline execution, so
 * single-core hosts pay no synchronization cost. Tasks posted to the
 * pool must not block on other pool tasks; parallelFor() is safe to
 * nest because a nested call on a worker thread runs inline.
 */
class ThreadPool
{
  public:
    /** A unit of queued work. */
    using Task = std::function<void()>;

    /** Spawn @p nthreads workers (0 means run everything inline). */
    explicit ThreadPool(size_t nthreads);

    /**
     * Stops the workers. Tasks still queued (not yet started) are
     * destroyed unexecuted; parallelFor() callers never observe this
     * because they return only after every chunk has run.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (callers add one more lane of work). */
    size_t size() const { return workers_.size(); }

    /**
     * Queue a fire-and-forget task. With no workers the task runs
     * inline before post() returns.
     */
    void post(Task task);

    /**
     * Run body(i) for every i in [begin, end), splitting the range
     * into chunks of at least @p grain indices. The caller
     * participates, so up to size() + 1 chunks execute concurrently;
     * @p max_runners > 0 caps that (1 forces a plain serial loop).
     * Returns once every index has run; the first exception thrown by
     * @p body is rethrown here.
     *
     * The chunk layout is a pure function of the arguments, so code
     * whose iterations are independent gets bit-identical results for
     * every thread count. Nested calls from a worker thread run
     * inline (serially) to keep the pool deadlock-free.
     */
    void parallelFor(size_t begin, size_t end, size_t grain,
                     const std::function<void(size_t)> &body,
                     size_t max_runners = 0);

    /**
     * The process-wide pool used by the batch APIs: sized to
     * defaultThreads() - 1 workers (at least 1), created on first use.
     */
    static ThreadPool &shared();

    /**
     * Default worker-lane count: the ST_NUM_THREADS environment
     * variable if set to a positive integer, else the hardware
     * concurrency (at least 1).
     */
    static size_t defaultThreads();

    /** True iff the calling thread is a pool worker. */
    static bool onWorkerThread();

    /**
     * True while the calling thread is executing inside a parallel
     * construct — a parallelFor() chunk on the calling thread, or a
     * TaskGraph drain. Nested parallelFor() calls from such a region
     * run inline: the outer construct already owns the pool's lanes,
     * so posting inner chunks would only queue no-op stubs behind the
     * outer work (the worker threads are covered by onWorkerThread()).
     */
    static bool inParallelRegion();

    /** RAII marker for inParallelRegion() (restores on destruction). */
    class ParallelRegion
    {
      public:
        ParallelRegion();
        ~ParallelRegion();
        ParallelRegion(const ParallelRegion &) = delete;
        ParallelRegion &operator=(const ParallelRegion &) = delete;

      private:
        bool prev_;
    };

  private:
    /** One worker's deque; owners pop the back, thieves the front. */
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<Task> tasks;
    };

    /** Shared bookkeeping of one parallelFor() call. */
    struct ForState
    {
        std::atomic<size_t> nextChunk{0};
        std::atomic<size_t> doneChunks{0};
        size_t chunks = 0;
        size_t begin = 0;
        size_t end = 0;
        size_t chunkSize = 0;
        const std::function<void(size_t)> *body = nullptr;
        std::mutex mutex;
        std::condition_variable finished;
        std::exception_ptr error;
    };

    void workerLoop(size_t self);
    bool tryPop(size_t self, Task &out);
    static void runChunks(const std::shared_ptr<ForState> &state);

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> workers_;
    std::mutex sleepMutex_;
    std::condition_variable wake_;
    std::atomic<size_t> nextQueue_{0};
    std::atomic<size_t> pending_{0};
    std::atomic<bool> stop_{false};
};

} // namespace st

#endif // ST_UTIL_THREAD_POOL_HPP
