// An exact oracle for the finite system itself. Given the epoch's snapshot,
// the M queues are independent birth-death chains (eq. (5)), so for a tiny
// fleet the joint law of (z_1, …, z_M) over |Z|^M states can be pushed
// forward epoch by epoch on a fixed λ path: each joint state's rates come
// from the routing law on its own histogram, and each queue's transition
// row and expected drops from ExactDiscretization::propagate_queue (eqs.
// (27)-(28)). This yields the exact expected drops per queue of every epoch,
// to which the epoch engine is held at K = 1 and K = M (InfiniteClients,
// M = 3, B = 5: 216 joint states).
#include "core/evaluator.hpp"
#include "field/arrival_flow.hpp"
#include "field/transition.hpp"
#include "policies/fixed.hpp"
#include "queueing/finite_system.hpp"
#include "support/statistics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

namespace mflb {
namespace {

/// The ROADMAP prototype's λ path (state 0 = λ_h, 1 = λ_l).
const std::vector<std::size_t> kPath{0, 1, 1, 0, 1, 0};

/// M = 3 Table-1 queues under InfiniteClients, ν_0 the M/M/1/B stationary
/// law at ρ = 0.75 (truncated geometric), one epoch per entry of kPath.
FiniteSystemConfig oracle_config(double dt) {
    FiniteSystemConfig config;
    config.num_queues = 3;
    config.client_model = ClientModel::InfiniteClients;
    config.dt = dt;
    config.horizon = static_cast<int>(kPath.size());
    const int num_z = config.queue.num_states();
    config.nu0.resize(static_cast<std::size_t>(num_z));
    double mass = 0.0;
    for (int z = 0; z < num_z; ++z) {
        config.nu0[static_cast<std::size_t>(z)] = std::pow(0.75, z);
        mass += std::pow(0.75, z);
    }
    for (double& p : config.nu0) {
        p /= mass;
    }
    return config;
}

/// Exact expected total drops per queue of an InfiniteClients episode of
/// `config` under rule `h` on the λ path `path`, by the joint-law recursion
/// of the file comment. O(|Z|^{2M}·M) per epoch.
double exact_total_drops(const FiniteSystemConfig& config, const DecisionRule& h,
                         const std::vector<std::size_t>& path) {
    const std::size_t m = config.num_queues;
    const auto num_z = static_cast<std::size_t>(config.queue.num_states());
    std::size_t joint = 1;
    for (std::size_t i = 0; i < m; ++i) {
        joint *= num_z;
    }
    const auto decode = [&](std::size_t x, std::vector<int>& z) {
        for (std::size_t i = 0; i < m; ++i, x /= num_z) {
            z[i] = static_cast<int>(x % num_z);
        }
    };
    // The initial queue states are i.i.d. ν_0.
    std::vector<int> z(m);
    std::vector<double> law(joint, 1.0);
    for (std::size_t x = 0; x < joint; ++x) {
        decode(x, z);
        for (const int zi : z) {
            law[x] *= config.nu0[static_cast<std::size_t>(zi)];
        }
    }
    const ExactDiscretization disc(config.queue, config.dt);
    std::vector<int> y(m);
    std::vector<double> hist(num_z);
    std::vector<std::vector<double>> rows(m);
    double total = 0.0;
    for (int t = 0; t < config.horizon; ++t) {
        const double lambda = config.arrivals.level(path[static_cast<std::size_t>(t)]);
        std::vector<double> next(joint, 0.0);
        for (std::size_t x = 0; x < joint; ++x) {
            if (law[x] == 0.0) {
                continue;
            }
            decode(x, z);
            std::fill(hist.begin(), hist.end(), 0.0);
            for (const int zi : z) {
                hist[static_cast<std::size_t>(zi)] += 1.0 / static_cast<double>(m);
            }
            const ArrivalFlow flow = compute_arrival_flow(hist, h, lambda);
            double drops = 0.0;
            for (std::size_t i = 0; i < m; ++i) {
                rows[i] = disc.propagate_queue(
                    z[i], flow.rate_by_state[static_cast<std::size_t>(z[i])]);
                drops += rows[i][num_z];
            }
            total += law[x] * drops / static_cast<double>(m);
            for (std::size_t target = 0; target < joint; ++target) {
                decode(target, y);
                double p = law[x];
                for (std::size_t i = 0; i < m; ++i) {
                    p *= rows[i][static_cast<std::size_t>(y[i])];
                }
                next[target] += p;
            }
        }
        law = std::move(next);
    }
    return total;
}

TEST(ExactOracle, ReproducesThePrototypeTotals) {
    // The JSQ(2) totals recorded when the oracle was prototyped.
    const TupleSpace space(6, 2);
    const DecisionRule jsq = DecisionRule::mf_jsq(space);
    EXPECT_NEAR(exact_total_drops(oracle_config(2.0), jsq, kPath), 0.3010, 5e-5);
    EXPECT_NEAR(exact_total_drops(oracle_config(5.0), jsq, kPath), 1.4965, 5e-5);
    EXPECT_NEAR(exact_total_drops(oracle_config(10.0), jsq, kPath), 4.7368, 5e-5);
}

TEST(ExactOracle, EpochEngineMatchesTheExactDrops) {
    // 4·10^4 episodes per cell put the standard error near 1% of the mean;
    // the engine must land within 4 of them at every K, rule and Δt.
    constexpr std::size_t kEpisodes = 40000;
    constexpr std::size_t kBatches = 40;
    const TupleSpace space(6, 2);
    for (const FixedRulePolicy& policy : {make_jsq_policy(space), make_rnd_policy(space)}) {
        for (const double dt : {2.0, 5.0, 10.0}) {
            FiniteSystemConfig config = oracle_config(dt);
            const double exact = exact_total_drops(config, policy.rule(), kPath);
            for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
                SCOPED_TRACE(::testing::Message() << policy.name() << " dt " << dt << " K "
                                                  << shards << " exact " << exact);
                config.shards = shards;
                // Episodes in batches, one system and one stream per batch.
                const std::vector<std::vector<double>> batches = run_replications(
                    kBatches, 7919, 0, [&](std::size_t, Rng& rng) {
                        FiniteSystem system(config);
                        std::vector<double> drops(kEpisodes / kBatches);
                        for (double& d : drops) {
                            system.reset_conditioned(kPath, rng);
                            d = system.run_episode(policy, rng).total_drops_per_queue;
                        }
                        return drops;
                    });
                RunningStat stat;
                for (const std::vector<double>& batch : batches) {
                    for (const double d : batch) {
                        stat.add(d);
                    }
                }
                EXPECT_LE(std::abs(stat.mean() - exact), 4.0 * stat.standard_error())
                    << "simulated " << stat.mean() << " +- " << stat.standard_error();
            }
        }
    }
}

} // namespace
} // namespace mflb
