// Tests for the power-of-d-with-memory baseline.
#include "queueing/memory_system.hpp"
#include "support/statistics.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace mflb {
namespace {

MemorySystemConfig small_config(double dt = 1.0) {
    MemorySystemConfig config;
    config.num_queues = 50;
    config.num_clients = 2500;
    config.dt = dt;
    config.horizon = 40;
    return config;
}

TEST(MemorySystem, ValidatesConfig) {
    MemorySystemConfig bad = small_config();
    bad.num_queues = 0;
    EXPECT_THROW(MemorySystem{bad}, std::invalid_argument);
    bad = small_config();
    bad.d = 0;
    EXPECT_THROW(MemorySystem{bad}, std::invalid_argument);
    const double inf = std::numeric_limits<double>::infinity();
    for (const double rate : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
        bad = small_config();
        bad.service_rate = rate;
        EXPECT_THROW(MemorySystem{bad}, std::invalid_argument) << rate;
    }
}

TEST(MemorySystem, EpisodeRunsAndStops) {
    MemorySystem system(small_config());
    Rng rng(1);
    system.reset(rng);
    const auto stats = system.run_episode(MemoryDiscipline::JsqDMemory, rng);
    EXPECT_TRUE(system.done());
    EXPECT_GE(stats.total_drops_per_queue, 0.0);
    EXPECT_THROW(system.step(MemoryDiscipline::JsqD, rng), std::logic_error);
}

TEST(MemorySystem, MemoryHitRateIsZeroWithoutMemory) {
    MemorySystem system(small_config());
    Rng rng(2);
    system.reset(rng);
    const auto jsq = system.run_episode(MemoryDiscipline::JsqD, rng);
    EXPECT_DOUBLE_EQ(jsq.memory_hit_rate, 0.0);

    system.reset(rng);
    const auto rnd = system.run_episode(MemoryDiscipline::Random, rng);
    EXPECT_DOUBLE_EQ(rnd.memory_hit_rate, 0.0);
}

TEST(MemorySystem, MemoryIsActuallyUsed) {
    MemorySystem system(small_config());
    Rng rng(3);
    system.reset(rng);
    const auto stats = system.run_episode(MemoryDiscipline::JsqDMemory, rng);
    EXPECT_GT(stats.memory_hit_rate, 0.01);
    EXPECT_LT(stats.memory_hit_rate, 0.9);
}

TEST(MemorySystem, MemoryAmplifiesHerdingUnderSynchronizedDelay) {
    // In the asynchronous fluid model of Anselmi & Dufour, memory helps.
    // Under the paper's *synchronized* snapshots it does not: the remembered
    // queue was chosen because it looked short, every rememberer returns to
    // it while the snapshot stays frozen, and the extra concentration costs
    // drops. We pin down that measured behaviour: memory never beats plain
    // JSQ(d) here, and both remain far better than RND at small delay.
    RunningStat with_memory, without, random;
    for (int rep = 0; rep < 25; ++rep) {
        {
            MemorySystem system(small_config(1.0));
            Rng rng(100 + rep);
            system.reset(rng);
            with_memory.add(
                system.run_episode(MemoryDiscipline::JsqDMemory, rng).total_drops_per_queue);
        }
        {
            MemorySystem system(small_config(1.0));
            Rng rng(100 + rep);
            system.reset(rng);
            without.add(system.run_episode(MemoryDiscipline::JsqD, rng).total_drops_per_queue);
        }
        {
            MemorySystem system(small_config(1.0));
            Rng rng(100 + rep);
            system.reset(rng);
            random.add(system.run_episode(MemoryDiscipline::Random, rng).total_drops_per_queue);
        }
    }
    EXPECT_GE(with_memory.mean(), without.mean() * 0.95);
    EXPECT_LT(with_memory.mean(), random.mean());
    EXPECT_LT(without.mean(), random.mean());
}

TEST(MemorySystem, JsqBeatsRandomAtSmallDelay) {
    RunningStat jsq, rnd;
    for (int rep = 0; rep < 15; ++rep) {
        {
            MemorySystem system(small_config(1.0));
            Rng rng(200 + rep);
            system.reset(rng);
            jsq.add(system.run_episode(MemoryDiscipline::JsqD, rng).total_drops_per_queue);
        }
        {
            MemorySystem system(small_config(1.0));
            Rng rng(200 + rep);
            system.reset(rng);
            rnd.add(system.run_episode(MemoryDiscipline::Random, rng).total_drops_per_queue);
        }
    }
    EXPECT_LT(jsq.mean(), rnd.mean());
}

} // namespace
} // namespace mflb
