#include "support/thread_pool.hpp"

#include "support/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace mflb {

namespace {

thread_local bool t_on_pool_worker = false;

/// How long a waiter polls before it parks. PPO's minibatch fan-outs come
/// about a millisecond apart, each with well under this much serial work
/// between them, so its workers do not park between two of them.
constexpr auto kPollBound = std::chrono::microseconds(200);
/// Spin-wait hints between two yields of a polling waiter: a few µs on x86.
constexpr int kPausesPerYield = 64;

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/// Returns the first value of `word` that satisfies `ready`. Polls for up
/// to kPollBound, yielding the CPU every kPausesPerYield polls, then blocks
/// on the atomic wait until a store to `word` brings a ready value.
template <typename Ready>
std::uint32_t await(const std::atomic<std::uint32_t>& word, Ready ready) noexcept {
    std::uint32_t value = word.load(std::memory_order_acquire);
    if (ready(value)) {
        return value;
    }
    const auto deadline = std::chrono::steady_clock::now() + kPollBound;
    do {
        for (int i = 0; i < kPausesPerYield; ++i) {
            cpu_relax();
            value = word.load(std::memory_order_acquire);
            if (ready(value)) {
                return value;
            }
        }
        std::this_thread::yield();
    } while (std::chrono::steady_clock::now() < deadline);
    while (!ready(value)) {
        word.wait(value, std::memory_order_acquire);
        value = word.load(std::memory_order_acquire);
    }
    return value;
}

/// One strip's claim cursor, bumped by the owner and by stealers alike.
/// Cache-line aligned so two threads hammering adjacent cursors never
/// false-share.
struct alignas(64) StripCursor {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
};

/// Shared state of one parallel_for call, stack-owned by the caller.
struct ForContext {
    ForContext(std::size_t strips_, std::size_t chunk_, IndexFnRef body_, StripCursor* cursors_)
        : strips(strips_), chunk(chunk_), body(body_), cursors(cursors_) {}

    std::size_t strips;
    std::size_t chunk;
    IndexFnRef body;
    StripCursor* cursors;
    std::atomic<bool> failed{false};
    std::exception_ptr first_error; ///< guarded by error_mutex.
    std::mutex error_mutex;
};

/// Strip t's owner drains it in `chunk`-sized claims, then steals chunks
/// from the other strips round-robin (t+1, t+2, …); nothing leaves it.
void drain_strips(ForContext& ctx, std::size_t t) noexcept {
    bool stop = false;
    for (std::size_t off = 0; off < ctx.strips && !stop; ++off) {
        StripCursor& cur = ctx.cursors[(t + off) % ctx.strips];
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

/// The persistent fan-out team behind parallel_for (see the header). Worker
/// w (0-based) runs strip w + 1 of every fan-out that engages it.
class Team {
public:
    explicit Team(std::size_t workers)
        : seats_(std::make_unique<Seat[]>(workers)),
          cursors_(std::make_unique<StripCursor[]>(workers + 1)) {
        threads_.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            try {
                threads_.emplace_back([this, w] { worker_loop(w); });
            } catch (const std::system_error&) {
                break; // the host lets no more threads start: a smaller team
            }
        }
    }

    ~Team() {
        stopping_.store(true, std::memory_order_relaxed);
        for (std::size_t w = 0; w < threads_.size(); ++w) {
            seats_[w].generation.fetch_add(1);
            seats_[w].generation.notify_one();
        }
        for (std::thread& thread : threads_) {
            thread.join();
        }
    }

    Team(const Team&) = delete;
    Team& operator=(const Team&) = delete;

    std::size_t workers() const noexcept { return threads_.size(); }

    /// Claims the team for one fan-out; false while another thread holds it.
    bool try_acquire() noexcept { return !busy_.exchange(true, std::memory_order_acquire); }

    /// Runs body over [0, n) in `strips` strips, on workers 0…strips−2 and
    /// the calling thread, which drains strip 0; returns once every engaged
    /// worker has left the fan-out, then releases the team. Returns the
    /// first exception a body threw. Requires try_acquire().
    std::exception_ptr run(std::size_t n, IndexFnRef body, std::size_t strips) noexcept {
        // Chunked work-stealing fan-out: indices are pre-split into
        // per-thread strips, claimed in ~8 chunks per strip so an unlucky
        // strip (one shard with most of the events) is stolen from rather
        // than waited on. The schedule decides placement only, never
        // results (per-index RNG-stream contract).
        for (std::size_t t = 0; t < strips; ++t) {
            cursors_[t].next.store(t * n / strips, std::memory_order_relaxed);
            cursors_[t].end = (t + 1) * n / strips;
        }
        ForContext ctx(strips, std::max<std::size_t>(1, n / (strips * 8)), body, cursors_.get());
        const std::size_t engaged = strips - 1;
        context_ = &ctx;
        remaining_.store(static_cast<std::uint32_t>(engaged), std::memory_order_relaxed);
        // Sequentially consistent bumps order each store before the check
        // for parked waiters inside notify_one().
        for (std::size_t w = 0; w < engaged; ++w) {
            seats_[w].generation.fetch_add(1);
            seats_[w].generation.notify_one();
        }
        // The caller drains strip 0 (and steals) instead of sleeping, marked
        // as a worker so nested fan-outs run inline.
        t_on_pool_worker = true;
        drain_strips(ctx, 0);
        t_on_pool_worker = false;
        await(remaining_, [](std::uint32_t left) { return left == 0; });
        busy_.store(false, std::memory_order_release);
        return ctx.first_error;
    }

private:
    /// One worker's generation counter, on its own cache line so the caller's
    /// bump invalidates only the worker it engages.
    struct alignas(64) Seat {
        std::atomic<std::uint32_t> generation{0};
    };

    void worker_loop(std::size_t w) noexcept {
        // Marked for the whole thread: any fan-out a body starts runs inline.
        t_on_pool_worker = true;
        std::uint32_t seen = 0;
        while (true) {
            const std::uint32_t last = seen;
            seen = await(seats_[w].generation, [last](std::uint32_t g) { return g != last; });
            if (stopping_.load(std::memory_order_relaxed)) {
                return;
            }
            // The ambient tracer (installed by the owning TelemetrySession)
            // spans the worker's part of the fan-out. The span is recorded
            // before the count-down, so a caller reading the tracer after
            // parallel_for returns never races with it. With no tracer
            // installed this is one predicted branch.
            {
                trace::ScopedSpan span(trace::active_tracer(), "pool_task");
                drain_strips(*context_, w + 1);
            }
            if (remaining_.fetch_sub(1) == 1) {
                remaining_.notify_one();
            }
        }
    }

    std::unique_ptr<Seat[]> seats_;
    std::unique_ptr<StripCursor[]> cursors_; ///< one per strip, reused by every fan-out.
    ForContext* context_ = nullptr;          ///< the current fan-out; written only by the holder.
    alignas(64) std::atomic<std::uint32_t> remaining_{0}; ///< engaged workers still in the fan-out.
    alignas(64) std::atomic<bool> busy_{false};           ///< held by the fan-out's caller.
    std::atomic<bool> stopping_{false};
    std::vector<std::thread> threads_; ///< declared last: the workers use every member above.
};

/// The process-wide team: one worker per hardware thread but the caller's.
Team& team() {
    static Team instance(std::max(1u, std::thread::hardware_concurrency()) - 1);
    return instance;
}

} // namespace

bool on_pool_worker() noexcept {
    return t_on_pool_worker;
}

void parallel_for(std::size_t n, IndexFnRef body, std::size_t threads) {
    if (n == 0) {
        return;
    }
    // Serial path: an explicit single-thread request, or the nested-use
    // guard — a body running on the team must not wait for the team it is
    // part of (replications x shards nesting would deadlock it, and would
    // reorder nothing anyway: results are thread-count independent by the
    // per-index RNG contract).
    const auto run_inline = [&] {
        for (std::size_t i = 0; i < n; ++i) {
            body(i);
        }
    };
    if (threads == 1 || n == 1 || on_pool_worker()) {
        run_inline();
        return;
    }
    Team& shared = team();
    const std::size_t most = shared.workers() + 1;
    const std::size_t strips = std::min({threads == 0 ? most : threads, n, most});
    if (strips <= 1 || !shared.try_acquire()) {
        run_inline();
        return;
    }
    if (const std::exception_ptr error = shared.run(n, body, strips)) {
        std::rethrow_exception(error);
    }
}

} // namespace mflb
