#include "field/arrival_flow.hpp"

#include "math/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

namespace mflb {

double tuple_probability(const TupleSpace& space, std::span<const double> nu, std::size_t idx) {
    double p = 1.0;
    for (int k = 0; k < space.d(); ++k) {
        p *= nu[static_cast<std::size_t>(space.coordinate(idx, k))];
        if (p == 0.0) {
            return 0.0;
        }
    }
    return p;
}

void compute_arrival_flow_into(std::span<const double> nu, const DecisionRule& h,
                               double lambda_total, std::vector<int>& tuple_scratch,
                               ArrivalFlow& out) {
    const TupleSpace& space = h.space();
    const auto num_z = static_cast<std::size_t>(space.num_states());
    if (nu.size() != num_z) {
        throw std::invalid_argument("compute_arrival_flow: nu size mismatch");
    }
    out.inflow_by_state.assign(num_z, 0.0);

    // λ'(z) = λ Σ_{z̄} μ(z̄) Σ_u h(u|z̄) 1{z̄_u = z}. The tuple probability
    // μ(z̄) factorizes over coordinates, so we accumulate it on the fly.
    const int d = space.d();
    tuple_scratch.resize(static_cast<std::size_t>(d));
    std::vector<int>& tuple = tuple_scratch;
    for (std::size_t idx = 0; idx < space.size(); ++idx) {
        space.decode(idx, tuple);
        double mu = 1.0;
        for (int k = 0; k < d; ++k) {
            mu *= nu[static_cast<std::size_t>(tuple[static_cast<std::size_t>(k)])];
        }
        if (mu == 0.0) {
            continue;
        }
        for (int u = 0; u < d; ++u) {
            const double weight = mu * h.prob(idx, u);
            if (weight > 0.0) {
                out.inflow_by_state[static_cast<std::size_t>(tuple[static_cast<std::size_t>(u)])] +=
                    lambda_total * weight;
            }
        }
    }

    out.rate_by_state.assign(num_z, 0.0);
    for (std::size_t z = 0; z < num_z; ++z) {
        if (nu[z] > 0.0) {
            out.rate_by_state[z] = out.inflow_by_state[z] / nu[z]; // eq. (19)
        }
    }
}

void compute_routing_table_into(std::span<const double> hist, const DecisionRule& h,
                                std::span<int> tuple, std::span<double> suffix,
                                std::span<double> g) {
    const TupleSpace& space = h.space();
    const auto num_z = static_cast<std::size_t>(space.num_states());
    const int d = space.d();
    if (hist.size() != num_z || tuple.size() != static_cast<std::size_t>(d) ||
        suffix.size() != static_cast<std::size_t>(d) + 1 ||
        g.size() != num_z * static_cast<std::size_t>(d)) {
        throw std::invalid_argument("compute_routing_table_into: buffer size mismatch");
    }
    std::fill(g.begin(), g.end(), 0.0);
    suffix[static_cast<std::size_t>(d)] = 1.0;
    for (std::size_t idx = 0; idx < space.size(); ++idx) {
        space.decode(idx, tuple);
        // Per-coordinate leave-one-out weights Π_{i≠k} H(z̄_i), computed via
        // prefix/suffix products to stay O(d) per tuple.
        double prefix = 1.0;
        for (int k = d - 1; k >= 0; --k) {
            suffix[static_cast<std::size_t>(k)] =
                suffix[static_cast<std::size_t>(k) + 1] *
                hist[static_cast<std::size_t>(tuple[static_cast<std::size_t>(k)])];
        }
        for (int k = 0; k < d; ++k) {
            const double weight = prefix * suffix[static_cast<std::size_t>(k) + 1];
            if (weight > 0.0) {
                g[static_cast<std::size_t>(k) * num_z +
                  static_cast<std::size_t>(tuple[static_cast<std::size_t>(k)])] +=
                    weight * h.prob(idx, k);
            }
            prefix *= hist[static_cast<std::size_t>(tuple[static_cast<std::size_t>(k)])];
        }
    }
}

std::span<const double> fold_routing_table_rows(std::span<double> g, std::size_t num_z,
                                                int d) noexcept {
    // g[z] ← Σ_k g(k, z): row 0, then rows 1..d-1 in ascending k. The
    // golden trajectories pin this addition order.
    double* __restrict row0 = g.data();
    for (int k = 1; k < d; ++k) {
        const double* __restrict rowk = g.data() + static_cast<std::size_t>(k) * num_z;
        for (std::size_t z = 0; z < num_z; ++z) {
            row0[z] += rowk[z];
        }
    }
    return g.first(num_z);
}

void sample_per_client_counts(std::span<const int> queue_states, const DecisionRule& h,
                              std::uint64_t num_clients, Rng& rng, std::span<int> sampled,
                              std::span<int> states, std::span<std::uint64_t> counts) {
    const int d = h.space().d();
    if (sampled.size() != static_cast<std::size_t>(d) ||
        states.size() != static_cast<std::size_t>(d) || counts.size() != queue_states.size()) {
        throw std::invalid_argument("sample_per_client_counts: buffer size mismatch");
    }
    std::fill(counts.begin(), counts.end(), 0);
    const std::uint64_t m = queue_states.size();
    for (std::uint64_t i = 0; i < num_clients; ++i) {
        for (int k = 0; k < d; ++k) {
            sampled[static_cast<std::size_t>(k)] = static_cast<int>(rng.uniform_below(m));
            states[static_cast<std::size_t>(k)] =
                queue_states[static_cast<std::size_t>(sampled[static_cast<std::size_t>(k)])];
        }
        const std::size_t row = h.space().index_of(states);
        const std::size_t u = rng.categorical(h.row(row));
        ++counts[static_cast<std::size_t>(sampled[u])];
    }
}

void sample_class_totals(std::uint64_t num_clients, std::span<const double> class_sums,
                         std::span<const int> cell_queues, Rng& rng, std::span<double> weights,
                         std::span<std::uint64_t> cell_clients) {
    const std::size_t num_z = class_sums.size();
    if (num_z == 0 || cell_queues.size() % num_z != 0 || weights.size() != cell_queues.size() ||
        cell_clients.size() != cell_queues.size()) {
        throw std::invalid_argument("sample_class_totals: buffer size mismatch");
    }
    double total = 0.0;
    std::size_t used = 0; // the chain's leftovers go to its last cell: one with queues.
    for (std::size_t c = 0; c < cell_queues.size(); ++c) {
        weights[c] = static_cast<double>(cell_queues[c]) * class_sums[c % num_z];
        total += weights[c];
        used = weights[c] > 0.0 ? c + 1 : used;
    }
    std::fill(cell_clients.begin(), cell_clients.end(), 0);
    if (used > 0) {
        rng.multinomial(num_clients, weights.first(used), total, cell_clients.first(used));
    }
}

namespace {
/// Mass a Poisson table leaves out, relative to its mode's weight — hence
/// below 2^-53 of the total, the resolution of `Rng::uniform`.
constexpr double kTailMass = 0x1.0p-53;
/// Rejected passes after which a class takes the binomial chain; under the
/// default μ_z a pass is rejected with probability ≤ 0.2%.
constexpr int kMaxRedraws = 16;
} // namespace

ClassCountSampler::ClassCountSampler(std::size_t num_states, std::size_t max_queues,
                                     double max_mean)
    : lo_(num_states, 0), len_(num_states, 0), begin_(num_states + 1, 0),
      fill_(num_states, 0), drawn_(num_states, 0), means_(num_states, 0.0),
      members_(max_queues, 0) {
    // Either tail of Poisson(μ) needs at most 9.6√μ + 16 entries; room for
    // means four standard deviations above `max_mean`, reached by chance.
    const double mu = std::max(0.0, max_mean);
    const double half = 9.6 * std::sqrt(mu + 4.0 * std::sqrt(mu) + 4.0) + 17.0;
    capacity_ = 2.0 * half < static_cast<double>(kMaxTable) ? 2 * static_cast<std::size_t>(half)
                                                             : kMaxTable;
    cdf_.assign(num_states * capacity_, 0.0);
    guide_.assign(num_states * capacity_, 0);
}

void ClassCountSampler::build_table(std::size_t z, double mu) {
    // Weights relative to the mode's, grown outward from the middle of the
    // class's block (no underflow at any μ). Away from the mode the ratio of
    // neighbours only shrinks, so a tail stops once the geometric bound on
    // what it leaves out is below kTailMass. A NaN μ hits the block's end.
    double* cdf = cdf_.data() + z * capacity_;
    const std::size_t half = capacity_ / 2;
    double* mid = cdf + half;
    const double mode = std::floor(mu);
    std::size_t left = 0;
    std::size_t right = 1;
    double w = mid[0] = 1.0;
    for (double k = mode, rho = k / mu; k > 0.0 && !(w * rho < kTailMass * (1.0 - rho));
         k -= 1.0, rho = k / mu) { // w(k − 1) = w(k)·k/μ
        if (++left > half) {
            return;
        }
        *(mid - left) = w *= rho;
    }
    w = 1.0;
    for (double k = mode + 1.0, rho = mu / k; !(w * rho < kTailMass * (1.0 - rho));
         k += 1.0, rho = mu / k) { // w(k) = w(k − 1)·μ/k
        if (half + right == capacity_) {
            return;
        }
        mid[right++] = w *= rho;
    }
    const std::size_t n = left + right;
    std::memmove(cdf, mid - left, n * sizeof(double));
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        cdf[i] = total += cdf[i];
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
        cdf[i] /= total;
    }
    cdf[n - 1] = 1.0; // every uniform in [0, 1) stops here at the latest.
    // guide[g]: the first entry above g/n, where a scan for u ≥ g/n starts.
    std::uint32_t* guide = guide_.data() + z * capacity_;
    for (std::size_t g = 0, i = 0; g < n; ++g) {
        while (cdf[i] <= static_cast<double>(g) / static_cast<double>(n)) {
            ++i;
        }
        guide[g] = static_cast<std::uint32_t>(i);
    }
    lo_[z] = static_cast<std::uint64_t>(mode) - left;
    len_[z] = n;
}

std::uint64_t ClassCountSampler::draw(std::size_t z, Rng& rng) const noexcept {
    const double u = rng.uniform();
    const std::size_t n = len_[z];
    const double* cdf = cdf_.data() + z * capacity_;
    std::size_t i = guide_[z * capacity_ +
                           std::min(static_cast<std::size_t>(u * static_cast<double>(n)), n - 1)];
    while (cdf[i] <= u) {
        ++i;
    }
    return lo_[z] + i;
}

void ClassCountSampler::sample(std::span<const int> queue_states,
                               std::span<const int> class_queues,
                               std::span<const std::uint64_t> class_clients, Rng& rng,
                               std::span<std::uint64_t> counts,
                               std::span<const double> class_means) {
    const std::size_t num_z = len_.size();
    const std::size_t n = queue_states.size();
    if (class_queues.size() != num_z || class_clients.size() != num_z ||
        (!class_means.empty() && class_means.size() != num_z) || counts.size() != n ||
        n > members_.size()) {
        throw std::invalid_argument("ClassCountSampler::sample: buffer size mismatch");
    }
    // Member regions, then a table per class with clients, two or more
    // queues and a positive mean (any μ_z, even NaN, leaves the law exact).
    for (std::size_t z = 0; z < num_z; ++z) {
        const auto clients = static_cast<double>(class_clients[z]);
        const auto queues = static_cast<double>(class_queues[z]);
        if (queues < 0.0 || (queues == 0.0 && clients > 0.0)) {
            throw std::invalid_argument("ClassCountSampler::sample: clients without queues");
        }
        means_[z] = !class_means.empty()
                        ? class_means[z]
                        : std::max(0.0, (clients - 3.0 * std::sqrt(clients)) / queues);
        begin_[z + 1] = begin_[z] + static_cast<std::size_t>(class_queues[z]);
        fill_[z] = begin_[z];
        drawn_[z] = 0;
        len_[z] = 0;
        if (clients > 0.0 && queues > 1.0 && means_[z] > 0.0) {
            build_table(z, means_[z]);
        }
    }
    const auto mismatch = [] {
        throw std::invalid_argument("ClassCountSampler::sample: class sizes mismatch");
    };
    if (begin_[num_z] != n) {
        mismatch();
    }
    // Poisson pass in queue order; classes without a table draw nothing.
    for (std::size_t j = 0; j < n; ++j) {
        const auto z = static_cast<std::size_t>(queue_states[j]);
        if (fill_[z] == begin_[z + 1]) {
            mismatch();
        }
        members_[fill_[z]++] = static_cast<std::uint32_t>(j);
        drawn_[z] += counts[j] = len_[z] != 0 ? draw(z, rng) : 0;
    }
    // Per class: redraw while K_z > N_z, then top up.
    for (std::size_t z = 0; z < num_z; ++z) {
        std::uint64_t total = class_clients[z];
        const std::uint32_t* members = members_.data() + begin_[z];
        const std::size_t size = begin_[z + 1] - begin_[z];
        if (total == 0) {
            continue;
        }
        ++stats_.class_draws;
        if (size == 1) {
            counts[members[0]] = total; // a lone member takes the class.
            continue;
        }
        bool chain = len_[z] == 0 && means_[z] > 0.0; // the table did not fit.
        for (int rejected = 0; !chain && drawn_[z] > total; ++rejected) {
            ++stats_.redraws;
            chain = rejected + 1 == kMaxRedraws;
            drawn_[z] = 0;
            for (std::size_t i = 0; !chain && i < size; ++i) {
                drawn_[z] += counts[members[i]] = draw(z, rng);
            }
        }
        if (chain) { // exact Multinomial(N_z, uniform) by conditional binomials.
            ++stats_.fallbacks;
            for (std::size_t i = 0; i < size; ++i) {
                const double p = 1.0 / static_cast<double>(size - i);
                counts[members[i]] = i + 1 == size ? total : rng.binomial(total, p);
                total -= counts[members[i]];
            }
            continue;
        }
        stats_.top_ups += total - drawn_[z];
        for (std::uint64_t t = drawn_[z]; t < total; ++t) {
            ++counts[members[rng.uniform_below(size)]];
        }
    }
}

ArrivalFlow compute_arrival_flow(std::span<const double> nu, const DecisionRule& h,
                                 double lambda_total) {
    ArrivalFlow flow;
    std::vector<int> tuple;
    compute_arrival_flow_into(nu, h, lambda_total, tuple, flow);
    return flow;
}

std::vector<double> packet_destination_distribution(std::span<const double> nu,
                                                    const DecisionRule& h) {
    const ArrivalFlow flow = compute_arrival_flow(nu, h, 1.0);
    return normalized(flow.inflow_by_state);
}

} // namespace mflb
