/// \file sojourn.hpp
/// Exact per-job sojourn-time tracking for the finite-system simulator — a
/// metrics extension beyond the paper's drop objective (its introduction
/// motivates response times; JSQ literature reports sojourn/response times).
///
/// Queues are FIFO, so a job's sojourn time is the interval from its
/// accepted arrival to its service completion. `JobRings` keeps the arrival
/// timestamps of the jobs currently in each buffer, in one flat array for
/// the whole fleet; the Gillespie kernel variants below take one queue's
/// `JobRing` view and record every accepted arrival and completed service
/// with exact event times.
///
/// `SojournRecorder` turns completed sojourns into p50/p95/p99 through one
/// `LogHistogram` (support/statistics.hpp): buckets at most 0.78% wide over
/// [2^-24, 2^24), one edge bucket on each side of that range, nearest-rank
/// quantiles reported as bucket midpoints, and merges that add integer
/// counts. The reported percentiles therefore do not depend on how a run
/// is split into shards or telemetry lanes, nor on the merge order.
/// \see queueing/gillespie.hpp for the underlying epoch simulation.
#pragma once

#include "queueing/gillespie.hpp"
#include "queueing/service_distribution.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

#include <span>
#include <stdexcept>
#include <vector>

namespace mflb {

/// FIFO arrival timestamps of the jobs inside one queue: a view of that
/// queue's slots in a `JobRings` block, or a null view (`!ring`) that
/// tracks nothing. Cheap to copy; valid until its `JobRings` is reset.
class JobRing {
public:
    /// Head slot and fill of one queue's ring (owned by `JobRings`).
    struct Cursor {
        int head = 0;
        int count = 0;
    };

    JobRing() = default;

    explicit operator bool() const noexcept { return cursor_ != nullptr; }
    int size() const noexcept { return cursor_->count; }
    /// Records an accepted arrival at absolute time `t`; throws
    /// std::logic_error when the ring already holds `capacity` jobs.
    void push(double t) {
        if (cursor_->count == capacity_) {
            throw std::logic_error("JobRing::push: buffer overflow");
        }
        int tail = cursor_->head + cursor_->count;
        if (tail >= capacity_) {
            tail -= capacity_;
        }
        slots_[tail] = t;
        ++cursor_->count;
    }
    /// Completes the oldest job at absolute time `t` and returns its
    /// sojourn; throws std::logic_error when the ring is empty.
    double pop(double t) {
        if (cursor_->count == 0) {
            throw std::logic_error("JobRing::pop: empty buffer");
        }
        const double arrival = slots_[cursor_->head];
        if (++cursor_->head == capacity_) {
            cursor_->head = 0;
        }
        --cursor_->count;
        return t - arrival;
    }

private:
    friend class JobRings;
    JobRing(double* slots, Cursor* cursor, int capacity) noexcept
        : slots_(slots), cursor_(cursor), capacity_(capacity) {}

    double* slots_ = nullptr;
    Cursor* cursor_ = nullptr;
    int capacity_ = 0;
};

/// The FIFO timestamp rings of all M queues: one flat M×B array of arrival
/// times (queue j owns slots [j·B, (j+1)·B)) plus one head/fill cursor per
/// queue. A queue never holds more than B jobs, so B slots suffice, and
/// wrap-around is a compare instead of a `%`. `reset` reuses the storage,
/// so only the first reset (or a larger M·B) allocates. Disjoint queues
/// touch disjoint slots, so the sharded backend's shards share one block.
class JobRings {
public:
    /// Sizes the block for `fill.size()` queues of capacity `capacity` and
    /// seeds queue j with fill[j] jobs stamped 0 (their waiting before the
    /// simulation started is unknown and counted as zero). Throws
    /// std::invalid_argument if capacity < 1, std::logic_error if some
    /// fill[j] exceeds it.
    void reset(std::span<const int> fill, int capacity);

    /// Queue j's ring.
    JobRing operator[](std::size_t j) noexcept {
        return JobRing(slots_.data() + j * static_cast<std::size_t>(capacity_), &cursors_[j],
                       capacity_);
    }

private:
    std::vector<double> slots_;
    std::vector<JobRing::Cursor> cursors_;
    int capacity_ = 0;
};

/// The sojourn percentiles (p50/p95/p99) the event-driven backends report:
/// one `LogHistogram`, so each completed job costs a single bucket
/// increment. Percentiles are the histogram's nearest-rank bucket midpoints
/// (within 0.4% of the exact sample quantiles), and merging adds counts, so
/// cross-shard percentiles are exact and independent of merge order. Plain
/// value type: fixed size, allocation-free, copyable (the counting-allocator
/// tests cover the departure path that uses it).
class SojournRecorder {
public:
    /// Records one completed job's sojourn.
    void record(double sojourn) noexcept { hist_.add(sojourn); }
    /// Folds another recorder's stream into this one (exact).
    void merge(const SojournRecorder& other) noexcept { hist_.merge(other.hist_); }
    /// Discards every observation.
    void reset() noexcept { hist_.clear(); }

    double p50() const noexcept { return hist_.quantile(0.50); }
    double p95() const noexcept { return hist_.quantile(0.95); }
    double p99() const noexcept { return hist_.quantile(0.99); }

private:
    LogHistogram hist_;
};

/// Epoch result extended with sojourn samples.
struct SojournEpochResult {
    QueueEpochResult queue;           ///< the usual drop/arrival counters.
    RunningStat sojourn;              ///< completed jobs' sojourn times.
};

/// `simulate_queue_epoch` (same loop, draws and `queue` counters) for `dt`
/// units from absolute time `t0`, with the jobs in the buffer described by
/// `jobs` (whose size must equal the queue fill), updated in place. Each
/// completed sojourn also goes to `recorder` when it is non-null.
SojournEpochResult simulate_queue_epoch_sojourn(JobRing jobs, double t0,
                                                double arrival_rate, double service_rate,
                                                int buffer, double dt, Rng& rng,
                                                SojournRecorder* recorder = nullptr);

/// General-service (M/G/1/B) variant of the per-queue epoch kernel: the
/// `FiniteSystem` path for non-exponential `ServiceDistribution`s and
/// heterogeneous server speeds, where the service-completion clock is *not*
/// memoryless and must be carried across epochs. `next_completion` is the
/// absolute completion time of the job in service (+infinity when idle),
/// updated in place; Poisson arrivals are redrawn each epoch (exact by
/// memorylessness of the arrival process, whose rate is frozen per epoch).
/// Queue j's service times are `service.sample(rng) / speed`. Unless `jobs`
/// is a null view, accepted arrivals / completions are timestamped through
/// it and completed sojourns land in `result.sojourn` (and in `recorder`
/// when it is non-null). Starts at absolute time `t0` with fill `z0`;
/// allocation-free.
SojournEpochResult simulate_queue_epoch_general(int z0, double arrival_rate,
                                                const ServiceDistribution& service,
                                                double speed, int buffer, double t0,
                                                double dt, double& next_completion,
                                                Rng& rng, JobRing jobs,
                                                SojournRecorder* recorder = nullptr);

/// Stationary M/M/1/B mean sojourn time via Little's law: E[T] = E[L] /
/// (λ (1 - P_B)) under the truncated-geometric stationary law. Oracle for
/// tests and capacity-planning examples.
double mm1b_mean_sojourn(double arrival_rate, double service_rate, int buffer);

/// Stationary M/M/1/B blocking probability P_B.
double mm1b_blocking_probability(double arrival_rate, double service_rate, int buffer);

/// Stationary M/M/1/B mean queue length E[L].
double mm1b_mean_length(double arrival_rate, double service_rate, int buffer);

} // namespace mflb
