#include "support/thread_pool.hpp"

#include "support/trace.hpp"

#include <atomic>
#include <exception>
#include <utility>

namespace mflb {

namespace {
thread_local bool t_on_pool_worker = false;
} // namespace

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0) {
        threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard lock(mutex_);
        stopping_ = true;
    }
    task_ready_.notify_all();
    for (auto& worker : workers_) {
        worker.join();
    }
}

void ThreadPool::submit(std::function<void()> task) {
    {
        std::lock_guard lock(mutex_);
        tasks_.push(std::move(task));
        ++in_flight_;
    }
    task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
    std::unique_lock lock(mutex_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
    if (first_error_) {
        std::exception_ptr error = std::exchange(first_error_, nullptr);
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void ThreadPool::worker_loop() {
    // Mark the thread for the nested-use guard the moment it becomes a
    // worker (not merely when it first runs a parallel_for strip): any task
    // on any pool — including direct submit() callers — that fans out again
    // must run that fan-out inline rather than block on pool capacity it
    // may itself be occupying.
    t_on_pool_worker = true;
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
            if (stopping_ && tasks_.empty()) {
                return;
            }
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        // A throwing task is recorded for wait_idle() instead of escaping
        // the thread (which would std::terminate the process).
        std::exception_ptr error;
        try {
            task();
        } catch (...) {
            error = std::current_exception();
        }
        {
            std::lock_guard lock(mutex_);
            if (error && !first_error_) {
                first_error_ = std::move(error);
            }
            --in_flight_;
            if (in_flight_ == 0) {
                all_done_.notify_all();
            }
        }
    }
}

ThreadPool& shared_thread_pool() {
    // One worker per hardware thread, built on first use and reused for the
    // rest of the process.
    static ThreadPool pool(0);
    return pool;
}

bool on_pool_worker() noexcept {
    return t_on_pool_worker;
}

namespace {

/// One worker's contiguous index strip; `next` is the strip's claim cursor,
/// bumped by the owner and by stealers alike. Cache-line aligned so two
/// workers hammering adjacent cursors never false-share.
struct alignas(64) StripCursor {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
};

/// Shared state of one parallel_for call, stack-owned by the caller. Tasks
/// capture a single pointer to it so the submit() closures fit
/// std::function's small-buffer optimization.
struct ForContext {
    ForContext(std::size_t threads_, std::size_t chunk_, IndexFnRef body_,
               StripCursor* cursors_)
        : threads(threads_), chunk(chunk_), body(body_), cursors(cursors_),
          done(static_cast<std::ptrdiff_t>(threads_)) {}

    std::size_t threads;
    std::size_t chunk;
    IndexFnRef body;
    StripCursor* cursors;
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    Latch done;
};

/// Worker t drains its own strip in `chunk`-sized claims, then steals
/// chunks from the other strips round-robin (t+1, t+2, …).
void drain_strips(ForContext& ctx, std::size_t t) {
    bool stop = false;
    for (std::size_t off = 0; off < ctx.threads && !stop; ++off) {
        StripCursor& cur = ctx.cursors[(t + off) % ctx.threads];
        while (!stop) {
            const std::size_t begin = cur.next.fetch_add(ctx.chunk, std::memory_order_relaxed);
            if (begin >= cur.end) {
                break;
            }
            const std::size_t last = std::min(begin + ctx.chunk, cur.end);
            for (std::size_t i = begin; i < last; ++i) {
                if (ctx.failed.load(std::memory_order_relaxed)) {
                    stop = true;
                    break;
                }
                try {
                    ctx.body(i);
                } catch (...) {
                    {
                        std::lock_guard lock(ctx.error_mutex);
                        if (!ctx.first_error) {
                            ctx.first_error = std::current_exception();
                        }
                    }
                    ctx.failed.store(true, std::memory_order_relaxed);
                    stop = true;
                    break;
                }
            }
        }
    }
}

/// One pool task of a parallel_for. The ambient tracer (installed by the
/// owning TelemetrySession) spans it so pool occupancy shows up on the
/// chrome://tracing timeline; the span is recorded before the latch count-
/// down, so a caller reading the tracer after parallel_for returns never
/// races with it. With no tracer installed this is one predicted branch.
void run_strips(ForContext& ctx, std::size_t t) {
    {
        trace::ScopedSpan span(trace::active_tracer(), "pool_task");
        drain_strips(ctx, t);
    }
    ctx.done.count_down();
}

} // namespace

void parallel_for(std::size_t n, IndexFnRef body, std::size_t threads) {
    if (n == 0) {
        return;
    }
    if (threads == 0) {
        // Resolved once: the hardware query reads sysfs (system calls), and
        // every epoch of the epoch engine fans its shards out through here.
        static const std::size_t hardware =
            std::max<std::size_t>(1, std::thread::hardware_concurrency());
        threads = hardware;
    }
    threads = std::min(threads, n);
    // Serial path: explicit single-thread request, or the nested-use guard —
    // a body running on the pool must not wait for pool capacity it may
    // itself be occupying (replications x shards nesting would deadlock a
    // fixed-size pool, and would reorder nothing anyway: results are
    // thread-count independent by the per-index RNG contract). IndexFnRef
    // keeps this path free of heap traffic.
    if (threads <= 1 || on_pool_worker()) {
        for (std::size_t i = 0; i < n; ++i) {
            body(i);
        }
        return;
    }

    // Chunked work-stealing fan-out onto the persistent pool: indices are
    // pre-split into per-worker strips, claimed in ~8 chunks per worker so
    // an unlucky strip (one shard with most of the events) is stolen from
    // rather than waited on. Completion is tracked by a per-call latch (not
    // wait_idle) so concurrent parallel_for calls from different threads
    // never wait on each other's tasks. The schedule decides placement
    // only, never results (per-index RNG-stream contract).
    std::vector<StripCursor> cursors(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        cursors[t].next.store(t * n / threads, std::memory_order_relaxed);
        cursors[t].end = (t + 1) * n / threads;
    }
    ForContext ctx(threads, std::max<std::size_t>(1, n / (threads * 8)), body,
                   cursors.data());
    ThreadPool& pool = shared_thread_pool();
    for (std::size_t t = 0; t < threads; ++t) {
        pool.submit([&ctx, t] { run_strips(ctx, t); });
    }
    ctx.done.wait();
    if (ctx.first_error) {
        std::rethrow_exception(ctx.first_error);
    }
}

} // namespace mflb
