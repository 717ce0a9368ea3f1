#include "queueing/router.hpp"

#include "math/vec_ops.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace mflb {

std::string_view router_name(RouterKind kind) noexcept {
    switch (kind) {
    case RouterKind::Policy:
        return "policy";
    case RouterKind::Random:
        return "random";
    case RouterKind::RoundRobin:
        return "round-robin";
    case RouterKind::Jsq:
        return "jsq";
    case RouterKind::JsqD:
        return "jsq-d";
    case RouterKind::SedD:
        return "sed-d";
    case RouterKind::SqStale:
        return "sq-stale";
    }
    return "policy";
}

RouterKind parse_router(std::string_view name) {
    if (name == "policy") {
        return RouterKind::Policy;
    }
    if (name == "random" || name == "rnd") {
        return RouterKind::Random;
    }
    if (name == "round-robin" || name == "rr") {
        return RouterKind::RoundRobin;
    }
    if (name == "jsq") {
        return RouterKind::Jsq;
    }
    if (name == "jsq-d" || name == "jsqd") {
        return RouterKind::JsqD;
    }
    if (name == "sed-d" || name == "sed") {
        return RouterKind::SedD;
    }
    if (name == "sq-stale" || name == "sq") {
        return RouterKind::SqStale;
    }
    throw std::invalid_argument(
        "unknown router '" + std::string(name) +
        "'; expected policy|random|round-robin|jsq|jsq-d|sed-d|sq-stale");
}

EpochRouter::EpochRouter(const RouterSpec& spec, std::size_t num_queues,
                         std::size_t num_states, double dt,
                         std::span<const double> server_speeds)
    : spec_(spec) {
    switch (spec_.kind) {
    case RouterKind::SqStale: {
        if (!(spec_.stale_period >= 0.0)) {
            throw std::invalid_argument("EpochRouter: stale_period must be >= 0");
        }
        // Whole-epoch rounding: information can only be observed at epoch
        // barriers, so a period of e.g. 2.5·dt refreshes every 3rd epoch.
        refresh_every_ = std::max(1, static_cast<int>(std::ceil(spec_.stale_period / dt)));
        frozen_.assign(num_queues, 0);
        break;
    }
    case RouterKind::JsqD:
    case RouterKind::SedD: {
        if (spec_.d < 1) {
            throw std::invalid_argument("EpochRouter: jsq-d and sed-d require d >= 1");
        }
        // Speed classes: the distinct speeds, ascending (jsq-d ignores them).
        const bool by_speed = spec_.kind == RouterKind::SedD && !server_speeds.empty();
        if (by_speed && (server_speeds.size() != num_queues ||
                         !std::all_of(server_speeds.begin(), server_speeds.end(),
                                      [](double s) { return std::isfinite(s) && s > 0.0; }))) {
            throw std::invalid_argument("EpochRouter: need one finite speed > 0 per queue");
        }
        std::vector<double> speeds{1.0};
        if (by_speed) {
            speeds.assign(server_speeds.begin(), server_speeds.end());
            std::sort(speeds.begin(), speeds.end());
            speeds.erase(std::unique(speeds.begin(), speeds.end()), speeds.end());
        }
        if (speeds.size() > 1) {
            cell_base_.resize(num_queues);
            cell_of_.resize(num_queues);
            for (std::size_t j = 0; j < num_queues; ++j) {
                const auto c = std::lower_bound(speeds.begin(), speeds.end(), server_speeds[j]);
                cell_base_[j] = static_cast<int>(static_cast<std::size_t>(c - speeds.begin()) *
                                                 num_states);
            }
        }
        // Scores are fixed per cell c·|Z| + z, so the cell order is sorted
        // once; equal scores, also across classes, form one tie group.
        const std::size_t cells = speeds.size() * num_states;
        std::vector<double> score(cells);
        for (std::size_t cell = 0; cell < cells; ++cell) {
            const auto z = static_cast<double>(cell % num_states);
            score[cell] =
                spec_.kind == RouterKind::JsqD ? z : (z + 1.0) / speeds[cell / num_states];
        }
        order_.resize(cells);
        std::iota(order_.begin(), order_.end(), 0u);
        std::stable_sort(order_.begin(), order_.end(),
                         [&](std::uint32_t a, std::uint32_t b) { return score[a] < score[b]; });
        for (std::size_t i = 0; i <= cells; ++i) {
            if (i == 0 || i == cells || score[order_[i]] != score[order_[i - 1]]) {
                groups_.push_back(i);
            }
        }
        cell_weight_.assign(cells, 0.0);
        break;
    }
    case RouterKind::Policy:
    case RouterKind::Random:
    case RouterKind::RoundRobin:
    case RouterKind::Jsq:
        break;
    }
}

void EpochRouter::jsq_weights(std::span<const int> snapshot, std::span<double> weights) {
    // All mass uniformly on the argmin queues (equal weights on ties — the
    // same tie law as the mean-field JSQ rule of eq. (34)).
    const int min_z = *std::min_element(snapshot.begin(), snapshot.end());
    for (std::size_t j = 0; j < snapshot.size(); ++j) {
        weights[j] = snapshot[j] == min_z ? 1.0 : 0.0;
    }
}

void EpochRouter::epoch_weights(std::span<const int> snapshot, int epoch,
                                std::span<double> weights) {
    switch (spec_.kind) {
    case RouterKind::Policy:
        throw std::logic_error("EpochRouter: the Policy kind has no weight law");
    case RouterKind::Random:
    case RouterKind::RoundRobin:
        // Round-robin's weight law is its equal-split mean behavior, which
        // FiniteSystem and ShardedDesSystem simulate; DesSystem overrides
        // per-arrival destinations with a cyclic cursor instead.
        std::fill(weights.begin(), weights.end(), 1.0);
        return;
    case RouterKind::Jsq:
        jsq_weights(snapshot, weights);
        return;
    case RouterKind::SqStale:
        if (!have_frozen_ || epoch % refresh_every_ == 0) {
            std::copy(snapshot.begin(), snapshot.end(), frozen_.begin());
            have_frozen_ = true;
        }
        jsq_weights(frozen_, weights);
        return;
    case RouterKind::JsqD:
    case RouterKind::SedD:
        power_of_d_weights(snapshot, weights);
        return;
    }
}

void EpochRouter::power_of_d_weights(std::span<const int> snapshot,
                                     std::span<double> weights) {
    std::span<const int> cells = snapshot;
    if (!cell_base_.empty()) {
        for (std::size_t j = 0; j < snapshot.size(); ++j) {
            cell_of_[j] = cell_base_[j] + snapshot[j];
        }
        cells = cell_of_;
    }
    std::fill(cell_weight_.begin(), cell_weight_.end(), 0.0);
    for (const int c : cells) {
        cell_weight_[static_cast<std::size_t>(c)] += 1.0;
    }
    // Tie groups from the highest score down turn each cell's queue count
    // into a weight in place; `above` counts the queues scoring higher. With
    // a = G_≥(s), b = G_>(s), a − b = n(s)/M, a queue gets
    // (a^d − b^d)/n(s) = (1/M)·Σ_{i<d} a^i·b^(d−1−i), cancellation-free.
    const double inv_m = 1.0 / static_cast<double>(snapshot.size());
    double above = 0.0;
    for (std::size_t g = groups_.size() - 1; g-- > 0;) {
        double n = 0.0;
        for (std::size_t i = groups_[g]; i < groups_[g + 1]; ++i) {
            n += cell_weight_[order_[i]];
        }
        if (n == 0.0) {
            continue; // no queue reads these cells' weight this epoch.
        }
        const double a = (above + n) * inv_m;
        const double b = above * inv_m;
        double sum = 1.0;
        double b_pow = 1.0;
        for (int k = 1; k < spec_.d; ++k) {
            b_pow *= b;
            sum = sum * a + b_pow;
        }
        for (std::size_t i = groups_[g]; i < groups_[g + 1]; ++i) {
            cell_weight_[order_[i]] = sum;
        }
        above += n;
    }
    gather_scale(cells, cell_weight_, inv_m, weights);
}

} // namespace mflb
