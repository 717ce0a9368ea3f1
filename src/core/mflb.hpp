/// \file mflb.hpp
/// Umbrella header: the public API of the mean-field load-balancing library.
///
/// Quickstart:
/// \code
///   #include "core/mflb.hpp"
///   using namespace mflb;
///
///   ExperimentConfig cfg;          // Table 1 defaults
///   cfg.dt = 5.0;
///   cfg.num_queues = 100;
///   cfg.num_clients = 10000;
///
///   const TupleSpace space(cfg.queue.num_states(), cfg.d);
///   const FixedRulePolicy jsq = make_jsq_policy(space);
///   const EvaluationResult r = evaluate_backend(SimBackend::Finite, cfg.finite_system(),
///                                               jsq, /*episodes=*/20, /*seed=*/1);
///   // r.total_drops.mean ± r.total_drops.half_width
/// \endcode
#pragma once

#include "core/config.hpp"
#include "core/dp_solver.hpp"
#include "core/evaluator.hpp"
#include "core/neural_policy.hpp"
#include "core/rl_adapter.hpp"
#include "core/scenarios.hpp"
#include "core/trainers.hpp"
#include "des/calendar_queue.hpp"
#include "des/des_system.hpp"
#include "des/event_queue.hpp"
#include "des/fel.hpp"
#include "des/sharded_des_system.hpp"
#include "field/arrival_flow.hpp"
#include "field/arrival_process.hpp"
#include "field/decision_rule.hpp"
#include "field/hetero_field.hpp"
#include "field/mfc_env.hpp"
#include "field/mmpp_fit.hpp"
#include "field/transition.hpp"
#include "field/tuple_space.hpp"
#include "math/expm.hpp"
#include "math/gemm.hpp"
#include "math/matrix.hpp"
#include "math/simplex.hpp"
#include "policies/fixed.hpp"
#include "policies/tabular.hpp"
#include "queueing/finite_backend.hpp"
#include "queueing/finite_system.hpp"
#include "queueing/gillespie.hpp"
#include "queueing/memory_system.hpp"
#include "queueing/router.hpp"
#include "queueing/service_distribution.hpp"
#include "queueing/sojourn.hpp"
#include "queueing/system_base.hpp"
#include "rl/cem.hpp"
#include "rl/ppo.hpp"
#include "support/cli.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"
