#include "field/arrival_flow.hpp"

#include "math/simplex.hpp"
#include "math/vec_ops.hpp"

#include <algorithm>
#include <stdexcept>

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
    // g[z] ← Σ_k g(k, z) accumulated in ascending k. Starting the sum at the
    // row-0 value and adding rows 1..d-1 is the same addition order as the
    // historical per-queue loop (total = (0 + g(0,z)) + g(1,z) + ... minus
    // the exact no-op leading zero), so the fold is bit-identical to it.
    double* __restrict row0 = g.data();
    for (int k = 1; k < d; ++k) {
        const double* __restrict rowk = g.data() + static_cast<std::size_t>(k) * num_z;
        for (std::size_t z = 0; z < num_z; ++z) {
            row0[z] += rowk[z];
        }
    }
    return g.first(num_z);
}

void compute_destination_law_into(std::span<const int> queue_states,
                                  std::span<const double> hist, const DecisionRule& h,
                                  std::span<int> tuple, std::span<double> suffix,
                                  std::span<double> g, std::span<double> dest_p) {
    if (dest_p.size() != queue_states.size()) {
        throw std::invalid_argument("compute_destination_law_into: dest_p size mismatch");
    }
    compute_routing_table_into(hist, h, tuple, suffix, g);
    const auto num_z = static_cast<std::size_t>(h.space().num_states());
    const std::span<const double> sums =
        fold_routing_table_rows(g, num_z, h.space().d());
    const double inv_m = 1.0 / static_cast<double>(queue_states.size());
    gather_scale(queue_states, sums, inv_m, dest_p);
}

void compute_destination_law_reference_into(std::span<const int> queue_states,
                                            std::span<const double> hist,
                                            const DecisionRule& h, std::span<int> tuple,
                                            std::span<double> suffix, std::span<double> g,
                                            std::span<double> dest_p) {
    if (dest_p.size() != queue_states.size()) {
        throw std::invalid_argument(
            "compute_destination_law_reference_into: dest_p size mismatch");
    }
    compute_routing_table_into(hist, h, tuple, suffix, g);
    const auto num_z = static_cast<std::size_t>(h.space().num_states());
    const int d = h.space().d();
    const double inv_m = 1.0 / static_cast<double>(queue_states.size());
    for (std::size_t j = 0; j < queue_states.size(); ++j) {
        double total = 0.0;
        for (int k = 0; k < d; ++k) {
            total += g[static_cast<std::size_t>(k) * num_z +
                       static_cast<std::size_t>(queue_states[j])];
        }
        dest_p[j] = inv_m * total;
    }
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
