#include "field/transition.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mflb {

ExactDiscretization::ExactDiscretization(QueueParams params, double dt)
    : params_(params), dt_(dt) {
    if (params.buffer < 1) {
        throw std::invalid_argument("ExactDiscretization: buffer must be >= 1");
    }
    if (!std::isfinite(params.service_rate) || params.service_rate <= 0.0) {
        throw std::invalid_argument("ExactDiscretization: service_rate must be finite and > 0");
    }
    if (!std::isfinite(dt) || dt <= 0.0) {
        throw std::invalid_argument("ExactDiscretization: dt must be finite and > 0");
    }
    const auto n = static_cast<std::size_t>(params_.buffer + 2);
    ws_.q = Matrix(n, n);
    ws_.e.assign(n, 0.0);
    ws_.propagated.assign(n, 0.0);
}

void ExactDiscretization::build_generator(double arrival_rate) const {
    const int b = params_.buffer;
    Matrix& q = ws_.q;
    // Transposed generator: columns sum to zero over the Z block. Arrivals
    // move probability from column i-1 up to row i; services from column i
    // down to row i-1 (paper's Q(ν,z)_{i,i-1} = λ_t, Q_{i-1,i} = α). The
    // sparsity pattern is fixed, so rewriting these entries fully refreshes
    // the cached matrix.
    for (int i = 1; i <= b; ++i) {
        q(static_cast<std::size_t>(i), static_cast<std::size_t>(i - 1)) = arrival_rate;
    }
    for (int i = 1; i <= b; ++i) {
        q(static_cast<std::size_t>(i - 1), static_cast<std::size_t>(i)) = params_.service_rate;
    }
    // Diagonal: each column's outflow. State B keeps losing arrivals (they
    // are dropped, not state-changing), so its diagonal only reflects the
    // service outflow; the drop row integrates λ · P_B separately.
    for (int i = 0; i <= b; ++i) {
        double outflow = 0.0;
        if (i < b) {
            outflow += arrival_rate; // arrival leaves state i (to i+1)
        }
        if (i > 0) {
            outflow += params_.service_rate; // service leaves state i (to i-1)
        }
        q(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) = -outflow;
    }
    // Drop bookkeeping row (27): Ḋ = λ_t(z) e_B^T P.
    q(static_cast<std::size_t>(b + 1), static_cast<std::size_t>(b)) = arrival_rate;
}

Matrix ExactDiscretization::extended_generator(double arrival_rate) const {
    build_generator(arrival_rate);
    return ws_.q;
}

void ExactDiscretization::propagate_into(int z0, double arrival_rate) const {
    const int b = params_.buffer;
    if (z0 < 0 || z0 > b) {
        throw std::invalid_argument("propagate_queue: z0 out of range");
    }
    build_generator(arrival_rate);
    // Uniformization keeps the probability block non-negative by
    // construction and is cheap for these tiny tridiagonal generators; the
    // workspace variant reuses the cached matrix and series buffers.
    std::fill(ws_.e.begin(), ws_.e.end(), 0.0);
    ws_.e[static_cast<std::size_t>(z0)] = 1.0;
    expm_uniformized_action_into(ws_.q, dt_, ws_.e, ws_.uni, ws_.propagated);
}

std::vector<double> ExactDiscretization::propagate_queue(int z0, double arrival_rate) const {
    propagate_into(z0, arrival_rate);
    return ws_.propagated;
}

double ExactDiscretization::expected_queue_drops(int z0, double arrival_rate) const {
    propagate_into(z0, arrival_rate);
    return ws_.propagated.back();
}

MeanFieldStep ExactDiscretization::step(std::span<const double> nu, const DecisionRule& h,
                                        double lambda_total) const {
    MeanFieldStep result;
    step(nu, h, lambda_total, result);
    return result;
}

void ExactDiscretization::step(std::span<const double> nu, const DecisionRule& h,
                               double lambda_total, MeanFieldStep& out) const {
    compute_arrival_flow_into(nu, h, lambda_total, ws_.tuple, ws_.flow);
    step_with_rates(nu, ws_.flow.rate_by_state, out);
}

MeanFieldStep ExactDiscretization::step_with_rates(std::span<const double> nu,
                                                   std::span<const double> rate_by_state) const {
    MeanFieldStep result;
    step_with_rates(nu, rate_by_state, result);
    return result;
}

void ExactDiscretization::step_with_rates(std::span<const double> nu,
                                          std::span<const double> rate_by_state,
                                          MeanFieldStep& out) const {
    const auto num_z = static_cast<std::size_t>(params_.num_states());
    if (nu.size() != num_z || rate_by_state.size() != num_z) {
        throw std::invalid_argument("step_with_rates: size mismatch");
    }
    out.nu_next.assign(num_z, 0.0);
    out.drops_by_state.assign(num_z, 0.0);
    out.rate_by_state.assign(rate_by_state.begin(), rate_by_state.end());
    out.expected_drops = 0.0;
    for (std::size_t z = 0; z < num_z; ++z) {
        if (nu[z] == 0.0) {
            continue;
        }
        propagate_into(static_cast<int>(z), rate_by_state[z]);
        const std::vector<double>& propagated = ws_.propagated;
        for (std::size_t z2 = 0; z2 < num_z; ++z2) {
            out.nu_next[z2] += nu[z] * propagated[z2]; // eq. (23)-(24)
        }
        out.drops_by_state[z] = propagated[num_z]; // D^z(Δt), eq. (25)
        out.expected_drops += nu[z] * propagated[num_z]; // eq. (26)
    }
}

} // namespace mflb
