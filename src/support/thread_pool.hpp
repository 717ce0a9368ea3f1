/// \file thread_pool.hpp
/// `parallel_for`: the fan-out behind independent Monte Carlo replications,
/// the epoch engine's per-epoch shard work and PPO's minibatch passes.
///
/// Every multi-threaded call runs on one process-wide team of persistent
/// workers, built on first use with hardware_concurrency() − 1 threads (none
/// on a one-CPU host, where every call runs inline; fewer if the host lets
/// no more threads start). The caller drains a strip itself, so a fan-out
/// of T strips engages T − 1 workers, and the team plus the caller never ask
/// for more threads than the host has.
///
/// The team serves one fan-out at a time. The caller points it at its
/// stack-owned context and bumps the generation counter of each worker it
/// engages; a worker runs its strip, then counts itself off a completion
/// count. Between fan-outs a worker polls its generation for up to 200 µs,
/// then parks on an atomic wait; the caller polls the completion count for
/// the same bound before it blocks. Both poll loops yield the CPU every few
/// microseconds, so a waiter that shares a CPU with the thread it waits for
/// hands it over instead of holding it for the whole bound. PPO's update
/// issues two fan-outs per minibatch about a millisecond apart, so its
/// workers stay hot and a hand-off costs a few microseconds, not a wake-up
/// through the scheduler.
///
/// Nested calls (from inside a body) run inline, which keeps results
/// identical and cannot deadlock the fixed-size team. A call from a second
/// thread while another thread's fan-out holds the team also runs inline.
/// The evaluation harness gives every loop index its own forked RNG stream,
/// so results are identical whichever thread runs an index, and whatever the
/// number of threads.
/// \see support/rng.hpp for the fork() contract that makes this safe.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

namespace mflb {

/// True on a team worker, and on a `parallel_for` caller while it drains
/// its own strip. Used as the nested-use guard: a nested fan-out runs inline
/// instead of waiting for a team the caller is itself part of.
bool on_pool_worker() noexcept;

/// Non-owning reference to a callable `void(std::size_t)` — the
/// `parallel_for` body type. Unlike `std::function` it never allocates or
/// copies the target, so a fan-out costs one indirect call per index and no
/// heap traffic — which is what keeps the epoch engine and the PPO update
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

/// Runs body(i) for i in [0, n), split into T = min(threads, n, team + 1)
/// strips (threads 0 = hardware concurrency): the caller drains strip 0,
/// team workers 1…T−1 the rest. Strips are claimed in cache-friendly chunks
/// (≈8 per strip); a thread that drains its own strip steals chunks from the
/// others round-robin, so one slow strip cannot serialize the tail. The
/// schedule only decides *where* each index runs — bodies must not depend
/// on execution order, which the per-index RNG-stream contract already
/// guarantees; results stay thread-count independent. If `body` throws, the
/// first exception is captured, remaining un-started chunks are skipped,
/// and the exception is rethrown on the calling thread once every engaged
/// worker has left the fan-out — so a throwing replication surfaces as a
/// normal exception instead of std::terminate. Indices already in flight
/// still run to completion. Nested calls (from inside a body), and calls
/// made while another thread's fan-out holds the team, run inline. A
/// steady-state call allocates nothing.
void parallel_for(std::size_t n, IndexFnRef body, std::size_t threads = 0);

} // namespace mflb
