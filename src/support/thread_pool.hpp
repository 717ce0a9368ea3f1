/// \file thread_pool.hpp
/// Minimal task-based thread pool plus a `parallel_for` used to fan out
/// independent Monte Carlo replications — and, since the sharded DES
/// backend, per-epoch shard work — across cores.
///
/// `parallel_for` runs on a lazily-constructed process-wide pool
/// (`shared_thread_pool`) instead of spawning and joining workers per call:
/// the sharded simulator issues one fan-out per decision epoch, so thread
/// churn would otherwise dominate short epochs. Calls from inside a pool
/// worker (nested use — e.g. sharded epochs inside parallel replications)
/// degrade to inline serial execution, which keeps results identical and
/// cannot deadlock the fixed-size pool.
///
/// The evaluation harness gives every loop index its own forked RNG stream,
/// so results are identical regardless of the number of worker threads. On a
/// single-core host the pool degrades to near-serial execution with no
/// change in results.
/// \see support/rng.hpp for the fork() contract that makes this safe.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace mflb {

/// Single-use count-down barrier: `count_down()` once per unit of work,
/// `wait()` blocks until the count reaches zero. This is the epoch-barrier
/// primitive of the sharded DES backend (each decision epoch fans shard
/// work out to the pool and waits on a latch), and how `parallel_for`
/// tracks completion of *its own* tasks on the shared pool while other
/// callers' tasks are in flight. std::latch already is exactly this
/// (and lock-free on mainstream platforms), so the name is an alias.
using Latch = std::latch;

/// Fixed-size pool of worker threads consuming a FIFO task queue.
class ThreadPool {
public:
    /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Enqueues a task for asynchronous execution. A task that throws does
    /// not take the process down: the first such exception is kept and
    /// rethrown by the next wait_idle().
    void submit(std::function<void()> task);
    /// Blocks until all submitted tasks have finished, then rethrows (and
    /// clears) the first exception a task threw since the last call.
    void wait_idle();

    std::size_t thread_count() const noexcept { return workers_.size(); }

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable task_ready_;
    std::condition_variable all_done_;
    std::size_t in_flight_ = 0;
    bool stopping_ = false;
    std::exception_ptr first_error_; ///< guarded by mutex_.
};

/// The process-wide worker pool behind `parallel_for`, constructed on first
/// use with one worker per hardware thread and reused for every subsequent
/// fan-out (replications, sharded epochs, benches).
ThreadPool& shared_thread_pool();

/// True when called from any `ThreadPool` worker thread (the shared pool's
/// or a private one's). Forward declaration for CompletionToken; the full
/// doc comment sits on the definition below.
bool on_pool_worker() noexcept;

/// One-shot completion token for a single offloaded task — the overlap
/// primitive of the pipelined sharded DES barrier, sitting alongside `Latch`
/// (which tracks a *fan-out*; this tracks one continuation). `launch(f)`
/// runs `f()` on the shared pool so the caller can do independent work, and
/// `wait()` joins with acquire semantics, so everything `f` wrote is visible
/// after `wait()` returns.
///
/// Like `IndexFnRef`, the callable is held by reference (one object pointer
/// + one function pointer, no allocation) and must outlive `wait()` — true
/// for the local-lambda call sites. The pool submit closure captures a
/// single pointer, so it fits std::function's small-buffer optimization; a
/// single-thread request or a nested (worker-thread) caller runs the task
/// inline before `launch` returns, keeping the threads<=1 hot path
/// allocation-free and deadlock-free. The token is reusable after `wait()`
/// but tracks at most one task at a time.
///
/// An exception thrown by `f` is captured, inline or on a worker alike, and
/// rethrown by `wait()` on the calling thread. Destroying a token whose task
/// is still running (the caller unwinding before `wait()`) blocks until the
/// task is done, so the task never outlives the objects it references.
class CompletionToken {
public:
    CompletionToken() = default;
    CompletionToken(const CompletionToken&) = delete;
    CompletionToken& operator=(const CompletionToken&) = delete;
    ~CompletionToken() { join(); }

    template <typename F>
        requires std::is_invocable_v<F&>
    void launch(F& f, std::size_t threads = 0) {
        obj_ = const_cast<void*>(static_cast<const void*>(std::addressof(f)));
        call_ = [](void* obj) { (*static_cast<std::remove_reference_t<F>*>(obj))(); };
        if (threads == 0) {
            threads = std::thread::hardware_concurrency();
        }
        if (threads <= 1 || on_pool_worker()) {
            run();
            state_.store(kIdle, std::memory_order_relaxed);
            return;
        }
        state_.store(kPending, std::memory_order_relaxed);
        submit_to_pool();
    }

    /// Blocks until the launched task has finished (no-op when it ran inline
    /// or nothing was launched), resets the token for reuse, and rethrows the
    /// task's exception if it threw. The task's release store paired with
    /// this acquire load orders its writes before the caller's later reads.
    void wait() {
        join();
        if (error_) {
            std::rethrow_exception(std::exchange(error_, nullptr));
        }
    }

private:
    static constexpr int kIdle = 0;    ///< no task outstanding (or ran inline)
    static constexpr int kPending = 1; ///< submitted, not yet finished
    static constexpr int kDone = 2;    ///< finished on a worker

    /// Runs the task, keeping any exception for wait().
    void run() noexcept {
        try {
            call_(obj_);
        } catch (...) {
            error_ = std::current_exception();
        }
    }
    /// Blocks until no task is pending and resets the state to idle.
    void join() noexcept {
        int s = state_.load(std::memory_order_acquire);
        while (s == kPending) {
            state_.wait(kPending, std::memory_order_acquire);
            s = state_.load(std::memory_order_acquire);
        }
        state_.store(kIdle, std::memory_order_relaxed);
    }
    /// Out-of-line so the header does not need the pool definition order.
    void submit_to_pool();

    std::atomic<int> state_{kIdle};
    void* obj_ = nullptr;
    void (*call_)(void*) = nullptr;
    std::exception_ptr error_; ///< written by run(), read after join().
};

/// True when called from any `ThreadPool` worker thread (the shared pool's
/// or a private one's) — e.g. from inside a `parallel_for` body or a
/// `submit()`ed task. Used as the nested-use guard: a nested fan-out runs
/// inline instead of blocking on pool capacity the caller may itself be
/// occupying.
bool on_pool_worker() noexcept;

/// Non-owning reference to a callable `void(std::size_t)` — the
/// `parallel_for` body type. Unlike `std::function` it never allocates or
/// copies the target, so the serial fast path (single-thread request or the
/// nested-use guard) costs one indirect call per index and zero heap
/// traffic — which is what keeps the sharded DES epoch hot paths
/// allocation-free. The referenced callable must outlive the `parallel_for`
/// call; that is trivially true for the inline-lambda call sites.
class IndexFnRef {
public:
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, IndexFnRef> &&
                 std::is_invocable_v<F&, std::size_t>)
    // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, so
    // lambda call sites read as plain parallel_for(n, [&](i) {...}).
    IndexFnRef(F&& f) noexcept
        : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
          call_([](void* obj, std::size_t i) {
              (*static_cast<std::remove_reference_t<F>*>(obj))(i);
          }) {}

    void operator()(std::size_t i) const { call_(obj_, i); }

private:
    void* obj_;
    void (*call_)(void*, std::size_t);
};

/// Runs body(i) for i in [0, n), distributed over up to `threads` workers
/// (0 = hardware concurrency) of the shared pool. Indices are pre-split
/// into per-worker strips claimed in cache-friendly chunks (≈8 per worker);
/// a worker that drains its own strip steals chunks from the others
/// round-robin, so one slow strip cannot serialize the epoch tail. The
/// schedule only decides *where* each index runs — bodies must not depend
/// on execution order, which the per-index RNG-stream contract already
/// guarantees; results stay thread-count independent. If `body` throws, the
/// first exception is captured, remaining un-started chunks are skipped,
/// and the exception is rethrown on the calling thread once this call's
/// work has drained — so a throwing replication surfaces as a normal
/// exception instead of std::terminate. Indices already in flight still run
/// to completion. Nested calls (from inside a body) execute serially inline.
void parallel_for(std::size_t n, IndexFnRef body, std::size_t threads = 0);

} // namespace mflb
