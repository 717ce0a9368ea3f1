#include "queueing/router.hpp"

#include "field/tuple_space.hpp"

#include <algorithm>
#include <cmath>
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
    if (name == "sq-stale" || name == "sq") {
        return RouterKind::SqStale;
    }
    throw std::invalid_argument(
        "unknown router '" + std::string(name) +
        "'; expected policy|random|round-robin|jsq|jsq-d|sq-stale");
}

EpochRouter::EpochRouter(const RouterSpec& spec, std::size_t num_queues,
                         std::size_t num_states, double dt)
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
    case RouterKind::JsqD: {
        if (spec_.d < 1) {
            throw std::invalid_argument("EpochRouter: jsq-d requires d >= 1");
        }
        const TupleSpace space(num_states, spec_.d);
        jsq_rule_.push_back(DecisionRule::mf_jsq(space));
        hist_.assign(num_states, 0.0);
        g_.assign(static_cast<std::size_t>(spec_.d) * num_states, 0.0);
        tuple_.assign(static_cast<std::size_t>(spec_.d), 0);
        suffix_.assign(static_cast<std::size_t>(spec_.d) + 1, 1.0);
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
    case RouterKind::JsqD: {
        // Exact power-of-d law: an arriving job samples d queues uniformly
        // i.i.d. and joins the shortest. The per-queue destination law is
        // the shared routing-table computation with the MF-JSQ rule —
        // identical arithmetic to the policy path's aggregation, so jsq-d
        // and the fixed MF-JSQ policy agree by construction.
        const double inv_m = 1.0 / static_cast<double>(snapshot.size());
        std::fill(hist_.begin(), hist_.end(), 0.0);
        for (const int z : snapshot) {
            hist_[static_cast<std::size_t>(z)] += inv_m;
        }
        compute_destination_law_into(snapshot, hist_, jsq_rule_.front(), tuple_, suffix_,
                                     g_, weights);
        return;
    }
    }
}

} // namespace mflb
