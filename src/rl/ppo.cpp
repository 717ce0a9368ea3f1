#include "rl/ppo.hpp"

#include "math/gemm.hpp"
#include "support/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

namespace mflb::rl {

namespace {
std::vector<std::size_t> value_layers(std::size_t obs_dim,
                                      const std::vector<std::size_t>& hidden) {
    std::vector<std::size_t> layers;
    layers.push_back(obs_dim);
    layers.insert(layers.end(), hidden.begin(), hidden.end());
    layers.push_back(1);
    return layers;
}

std::unique_ptr<Env> make_checked_env(const PpoTrainer::EnvFactory& make_env) {
    if (!make_env) {
        throw std::invalid_argument("PpoTrainer: null environment factory");
    }
    std::unique_ptr<Env> env = make_env();
    if (env == nullptr) {
        throw std::invalid_argument("PpoTrainer: environment factory returned null");
    }
    return env;
}

/// Stream id of the dedicated evaluation RNG, distinct from every rollout
/// slot id so evaluation never shares draws with collection.
constexpr std::uint64_t kEvalStream = ~std::uint64_t{0};

/// Weight entries per gradient block of the update's reduction fan-out:
/// 16 output units of a 256-wide layer, i.e. 16 blocks per hidden layer of
/// the Table-2 network — enough blocks per thread to balance the load.
constexpr std::size_t kGradBlockEntries = 4096;

PpoConfig validated(PpoConfig config) {
    config.validate();
    return config;
}
} // namespace

void PpoConfig::validate() const {
    const auto reject = [](const char* field, const char* rule, auto value) {
        std::ostringstream message;
        message << "PpoConfig: " << field << " must be " << rule << " (got " << value << ")";
        throw std::invalid_argument(message.str());
    };
    struct Rule {
        const char* field;
        double value;
        const char* rule;
        bool holds;
    };
    const Rule reals[] = {
        {"discount", discount, "in (0, 1]", discount > 0.0 && discount <= 1.0},
        {"gae_lambda", gae_lambda, "in [0, 1]", gae_lambda >= 0.0 && gae_lambda <= 1.0},
        {"kl_coeff", kl_coeff, ">= 0", kl_coeff >= 0.0},
        {"kl_target", kl_target, "> 0", kl_target > 0.0},
        {"clip_param", clip_param, "> 0", clip_param > 0.0},
        {"learning_rate", learning_rate, "> 0", learning_rate > 0.0},
        {"vf_loss_coeff", vf_loss_coeff, ">= 0", vf_loss_coeff >= 0.0},
        {"vf_clip_param", vf_clip_param, "> 0", vf_clip_param > 0.0},
        {"entropy_coeff", entropy_coeff, "finite", true},
        {"max_grad_norm", max_grad_norm, ">= 0", max_grad_norm >= 0.0},
        {"initial_log_std", initial_log_std, "finite", true}};
    for (const Rule& real : reals) {
        if (!std::isfinite(real.value)) {
            reject(real.field, "finite", real.value);
        }
        if (!real.holds) {
            reject(real.field, real.rule, real.value);
        }
    }
    const std::pair<const char*, std::size_t> counts[] = {{"train_batch_size", train_batch_size},
                                                          {"minibatch_size", minibatch_size},
                                                          {"num_epochs", num_epochs},
                                                          {"num_envs", num_envs}};
    for (const auto& [field, count] : counts) {
        if (count == 0) {
            reject(field, "> 0", count);
        }
    }
    if (num_envs > train_batch_size) {
        reject("num_envs", "<= train_batch_size", num_envs);
    }
}

void PpoTrainer::append_grad_blocks(const Mlp& net, bool value_net,
                                    std::vector<GradBlock>& blocks) {
    const std::vector<std::size_t>& sizes = net.layer_sizes();
    for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
        const std::size_t units = std::max<std::size_t>(1, kGradBlockEntries / sizes[l]);
        const std::size_t step = (units + kGemmRowTile - 1) / kGemmRowTile * kGemmRowTile;
        for (std::size_t o = 0; o < sizes[l + 1]; o += step) {
            const std::size_t end = std::min(sizes[l + 1], o + step);
            blocks.push_back({value_net, l, o, end, net.weight_offset(l) + o * sizes[l],
                              net.weight_offset(l) + end * sizes[l], net.bias_offset(l) + o,
                              net.bias_offset(l) + end});
        }
    }
}

PpoTrainer::PpoTrainer(const EnvFactory& make_env, PpoConfig config, Rng rng)
    : config_(validated(std::move(config))),
      eval_env_(make_checked_env(make_env)),
      obs_dim_(eval_env_->observation_dim()),
      act_dim_(eval_env_->action_dim()),
      rng_(rng),
      policy_(obs_dim_, act_dim_, config_.hidden, rng_),
      value_net_(value_layers(obs_dim_, config_.hidden), rng_, 1.0),
      policy_opt_(policy_.parameter_count(), config_.learning_rate),
      value_opt_(value_net_.parameter_count(), config_.learning_rate),
      kl_coeff_(config_.kl_coeff),
      buffer_(config_.train_batch_size, obs_dim_, act_dim_) {
    if (config_.initial_log_std != 0.0) {
        policy_.set_initial_log_std(config_.initial_log_std);
    }
    eval_rng_ = rng_.fork(kEvalStream);
    tracer_ = session_tracer(config_.telemetry);

    // Rollout slots: slot k collects a fixed quota of ⌈B/K⌉ or ⌊B/K⌋ steps
    // on its own environment and fork(k) stream (slot 0 of a single-env
    // trainer draws from the main stream instead, reproducing the legacy
    // serial trajectory exactly).
    const std::size_t num_envs = config_.num_envs;
    const std::size_t base = config_.train_batch_size / num_envs;
    const std::size_t extra = config_.train_batch_size % num_envs;
    slots_.reserve(num_envs);
    for (std::size_t k = 0; k < num_envs; ++k) {
        const std::size_t quota = base + (k < extra ? 1 : 0);
        std::unique_ptr<Env> env = make_checked_env(make_env);
        if (env->observation_dim() != obs_dim_ || env->action_dim() != act_dim_) {
            throw std::invalid_argument("PpoTrainer: factory environments disagree on dims");
        }
        slots_.emplace_back(std::move(env), quota, obs_dim_, act_dim_);
        slots_.back().rng = rng_.fork(k);
    }

    // Update-phase workspaces, sized once for the largest minibatch.
    const std::size_t rows = std::min(config_.minibatch_size, config_.train_batch_size);
    order_.assign(config_.train_batch_size, 0);
    obs_batch_.assign(rows * obs_dim_, 0.0);
    act_batch_.assign(rows * act_dim_, 0.0);
    old_mean_batch_.assign(rows * act_dim_, 0.0);
    old_log_std_batch_.assign(rows * act_dim_, 0.0);
    adv_batch_.assign(rows, 0.0);
    target_batch_.assign(rows, 0.0);
    logp_old_batch_.assign(rows, 0.0);
    mean_batch_.assign(rows * act_dim_, 0.0);
    log_std_batch_.assign(rows * act_dim_, 0.0);
    logp_new_batch_.assign(rows, 0.0);
    entropy_batch_.assign(rows, 0.0);
    c_logp_batch_.assign(rows, 0.0);
    surrogate_batch_.assign(rows, 0.0);
    kl_batch_.assign(rows, 0.0);
    value_loss_batch_.assign(rows, 0.0);
    grad_out_policy_.assign(rows * 2 * act_dim_, 0.0);
    grad_out_value_.assign(rows, 0.0);
    policy_bws_ = Mlp::BatchWorkspace(policy_.network(), rows);
    value_bws_ = Mlp::BatchWorkspace(value_net_, rows);
    policy_grad_.assign(policy_.parameter_count(), 0.0);
    value_grad_.assign(value_net_.parameter_count(), 0.0);
    append_grad_blocks(policy_.network(), false, grad_blocks_);
    append_grad_blocks(value_net_, true, grad_blocks_);
    const std::size_t threads = config_.train_threads != 0
                                    ? config_.train_threads
                                    : std::max(1u, std::thread::hardware_concurrency());
    row_chunks_ = threads;
    old_moments_scratch_.mean.assign(act_dim_, 0.0);
    old_moments_scratch_.log_std.assign(act_dim_, 0.0);
}

void PpoTrainer::collect_slot(Slot& slot, Rng& rng) const {
    slot.buffer.clear();
    slot.return_sum = 0.0;
    slot.episodes_completed = 0;
    while (!slot.buffer.full()) {
        if (!slot.episode_active) {
            slot.current_obs = slot.env->reset(rng);
            slot.episode_return = 0.0;
            slot.episode_active = true;
        }
        const double log_prob = policy_.sample_with_moments(
            slot.current_obs, rng, slot.policy_ws, slot.action, slot.mean, slot.log_std);
        const double value = value_net_.forward_span(slot.current_obs, slot.value_ws)[0];
        Env::StepResult step = slot.env->step(slot.action, rng);
        slot.buffer.add(slot.current_obs, slot.action, step.reward, value, log_prob, step.done,
                        slot.mean, slot.log_std);
        slot.episode_return += step.reward;
        slot.current_obs = std::move(step.observation);
        if (step.done) {
            slot.episode_active = false;
            slot.return_sum += slot.episode_return;
            ++slot.episodes_completed;
        }
    }
    slot.bootstrap = slot.episode_active
                         ? value_net_.forward_span(slot.current_obs, slot.value_ws)[0]
                         : 0.0;
}

void PpoTrainer::collect_phase(PpoIterationStats& stats) {
    buffer_.clear();
    if (slots_.size() == 1) {
        // Single-env path draws from the main stream (legacy trajectory).
        collect_slot(slots_[0], rng_);
    } else {
        parallel_for(
            slots_.size(),
            [this](std::size_t k) {
                trace::ScopedSpan span(tracer_, "rollout_slot");
                collect_slot(slots_[k], slots_[k].rng);
            },
            config_.train_threads);
    }
    double return_sum = 0.0;
    std::size_t episodes = 0;
    for (Slot& slot : slots_) { // fixed slot order: the serial merge reduction
        buffer_.append_segment(slot.buffer, slot.bootstrap);
        return_sum += slot.return_sum;
        episodes += slot.episodes_completed;
    }
    buffer_.compute_gae(config_.discount, config_.gae_lambda);
    if (config_.normalize_advantages) {
        buffer_.normalize_advantages();
    }
    timesteps_total_ += buffer_.size();
    stats.timesteps_total = timesteps_total_;
    stats.episodes_completed = episodes;
    stats.mean_episode_return =
        episodes > 0 ? return_sum / static_cast<double>(episodes) : 0.0;
}

void PpoTrainer::finish_optimize(PpoIterationStats& stats, double kl_sum,
                                 double policy_loss_sum, double value_loss_sum,
                                 double entropy_sum, std::size_t samples) {
    const double inv = samples > 0 ? 1.0 / static_cast<double>(samples) : 0.0;
    stats.mean_kl = kl_sum * inv;
    stats.policy_loss = policy_loss_sum * inv;
    stats.value_loss = value_loss_sum * inv;
    stats.entropy = entropy_sum * inv;

    // Adaptive KL coefficient (RLlib's update_kl rule).
    if (stats.mean_kl > 2.0 * config_.kl_target) {
        kl_coeff_ *= 1.5;
    } else if (stats.mean_kl < 0.5 * config_.kl_target) {
        kl_coeff_ *= 0.5;
    }
    stats.kl_coeff = kl_coeff_;
}

void PpoTrainer::accumulate_block(const GradBlock& block) {
    std::vector<double>& grad = block.value_net ? value_grad_ : policy_grad_;
    std::fill_n(grad.data() + block.weights_begin, block.weights_end - block.weights_begin, 0.0);
    std::fill_n(grad.data() + block.bias_begin, block.bias_end - block.bias_begin, 0.0);
    const Mlp& net = block.value_net ? value_net_ : policy_.network();
    net.accumulate_gradient(block.value_net ? value_bws_ : policy_bws_, block.layer, block.begin,
                            block.end, grad);
}

void PpoTrainer::step_block(const GradBlock& block, double scale) {
    Mlp& net = block.value_net ? value_net_ : policy_.network();
    Adam& opt = block.value_net ? value_opt_ : policy_opt_;
    const std::vector<double>& grad = block.value_net ? value_grad_ : policy_grad_;
    opt.step_range(net.parameters(), grad, block.weights_begin, block.weights_end, scale);
    opt.step_range(net.parameters(), grad, block.bias_begin, block.bias_end, scale);
    net.transpose_weight_rows(block.value_net ? value_bws_ : policy_bws_, block.layer,
                              block.begin, block.end);
}

void PpoTrainer::optimize_batched(PpoIterationStats& stats) {
    const std::size_t n = buffer_.size();
    const std::size_t a_dim = act_dim_;
    double kl_sum = 0.0;
    double policy_loss_sum = 0.0;
    double value_loss_sum = 0.0;
    double entropy_sum = 0.0;
    std::size_t sample_count = 0;

    // The forward passes multiply by transposed weights. The parameters may
    // have changed since the last phase, so transpose both nets here; from
    // then on, the block fan-out below re-transposes every weight row it
    // updates.
    policy_.network().transpose_weights(policy_bws_);
    value_net_.transpose_weights(value_bws_);

    for (std::size_t epoch = 0; epoch < config_.num_epochs; ++epoch) {
        rng_.permutation(std::span<std::uint32_t>(order_.data(), n));
        for (std::size_t start = 0; start < n; start += config_.minibatch_size) {
            const std::size_t end = std::min(n, start + config_.minibatch_size);
            const std::size_t rows = end - start;
            const double inv_batch = 1.0 / static_cast<double>(rows);
            const double c_entropy = -config_.entropy_coeff * inv_batch;
            const double c_kl = kl_coeff_ * inv_batch;
            policy_.network().begin_batch(policy_bws_, rows);
            value_net_.begin_batch(value_bws_, rows);

            // (A) Row-parallel pass: gather, both forward passes, the per-row
            // loss terms and output gradients, and delta back-propagation
            // for one chunk of minibatch rows. Row r of every buffer depends
            // only on row r, so chunks write disjoint rows, and chunk edges
            // on the GEMM tile grid make every chunking bitwise equal to the
            // whole-minibatch pass. Each thread takes one chunk, so it
            // streams both nets' weights once per chunk; at 4 threads a
            // chunk is 32 Table-2 rows. The team starts every chunk within
            // microseconds, so no spare chunk is kept for stealing.
            const std::size_t chunk_rows =
                (rows + row_chunks_ * kGemmRowTile - 1) / (row_chunks_ * kGemmRowTile) *
                kGemmRowTile;
            const auto row_pass = [&](std::size_t chunk) {
                const std::size_t r0 = chunk * chunk_rows;
                const std::size_t r1 = std::min(rows, r0 + chunk_rows);
                const auto rows_of = [&](std::vector<double>& v, std::size_t width) {
                    return std::span<double>(v.data() + r0 * width, (r1 - r0) * width);
                };
                for (std::size_t r = r0; r < r1; ++r) {
                    const std::size_t idx = order_[start + r];
                    const auto put = [r](std::span<const double> from, std::vector<double>& to) {
                        std::copy(from.begin(), from.end(),
                                  to.begin() + static_cast<std::ptrdiff_t>(r * from.size()));
                    };
                    put(buffer_.observation(idx), obs_batch_);
                    put(buffer_.action(idx), act_batch_);
                    put(buffer_.old_mean(idx), old_mean_batch_);
                    put(buffer_.old_log_std(idx), old_log_std_batch_);
                    adv_batch_[r] = buffer_.advantage(idx);
                    target_batch_[r] = buffer_.value_target(idx);
                    logp_old_batch_[r] = buffer_.log_prob(idx);
                }

                // --- policy terms ---
                policy_.evaluate_rows(rows_of(obs_batch_, obs_dim_), rows_of(act_batch_, a_dim), r0,
                                      r1, policy_bws_, rows_of(mean_batch_, a_dim),
                                      rows_of(log_std_batch_, a_dim), rows_of(logp_new_batch_, 1),
                                      rows_of(entropy_batch_, 1));
                for (std::size_t r = r0; r < r1; ++r) {
                    const double advantage = adv_batch_[r];
                    const double ratio = std::exp(logp_new_batch_[r] - logp_old_batch_[r]);
                    const double clipped =
                        std::clamp(ratio, 1.0 - config_.clip_param, 1.0 + config_.clip_param);
                    surrogate_batch_[r] = std::min(ratio * advantage, clipped * advantage);
                    kl_batch_[r] = GaussianPolicy::kl(
                        std::span<const double>(old_mean_batch_.data() + r * a_dim, a_dim),
                        std::span<const double>(old_log_std_batch_.data() + r * a_dim, a_dim),
                        std::span<const double>(mean_batch_.data() + r * a_dim, a_dim),
                        std::span<const double>(log_std_batch_.data() + r * a_dim, a_dim));
                    // d(-surrogate)/d logp: active only when the unclipped
                    // branch is the binding one.
                    const bool unclipped_active = ratio * advantage <= clipped * advantage;
                    c_logp_batch_[r] = unclipped_active ? -advantage * ratio * inv_batch : 0.0;
                }
                policy_.backprop_rows(policy_bws_, r0, r1, rows_of(act_batch_, a_dim),
                                      rows_of(mean_batch_, a_dim), rows_of(log_std_batch_, a_dim),
                                      rows_of(c_logp_batch_, 1), c_entropy, c_kl,
                                      rows_of(old_mean_batch_, a_dim),
                                      rows_of(old_log_std_batch_, a_dim),
                                      rows_of(grad_out_policy_, 2 * a_dim));

                // --- value term (clipped squared error, RLlib-style) ---
                const std::span<const double> values =
                    value_net_.forward_rows(rows_of(obs_batch_, obs_dim_), r0, r1, value_bws_);
                for (std::size_t r = r0; r < r1; ++r) {
                    const double error = values[r - r0] - target_batch_[r];
                    const double sq = error * error;
                    grad_out_value_[r] = sq <= config_.vf_clip_param
                                             ? config_.vf_loss_coeff * 2.0 * error * inv_batch
                                             : 0.0;
                    value_loss_batch_[r] = std::min(sq, config_.vf_clip_param);
                }
                value_net_.backprop_rows(value_bws_, r0, r1, rows_of(grad_out_value_, 1));
            };
            parallel_for((rows + chunk_rows - 1) / chunk_rows, row_pass, config_.train_threads);

            // (B) Output-row-parallel update: each block of gradient rows
            // sums over all minibatch rows in ascending order, then steps
            // Adam on its own weights and biases, which is element-wise and
            // so bitwise the whole-vector step, and re-transposes them.
            policy_opt_.begin_step();
            value_opt_.begin_step();
            if (config_.max_grad_norm > 0.0) {
                // Clipping scales each net's step by its whole gradient's
                // norm, so every block finishes its sums before any steps.
                parallel_for(
                    grad_blocks_.size(),
                    [this](std::size_t b) { accumulate_block(grad_blocks_[b]); },
                    config_.train_threads);
                const double policy_scale = Adam::clip_scale(policy_grad_, config_.max_grad_norm);
                const double value_scale = Adam::clip_scale(value_grad_, config_.max_grad_norm);
                parallel_for(
                    grad_blocks_.size(),
                    [&](std::size_t b) {
                        const GradBlock& block = grad_blocks_[b];
                        step_block(block, block.value_net ? value_scale : policy_scale);
                    },
                    config_.train_threads);
            } else {
                // Without clipping each block steps right after its sums,
                // while its gradient rows are still in cache, and the
                // minibatch takes one fan-out less than the form above.
                parallel_for(
                    grad_blocks_.size(),
                    [this](std::size_t b) {
                        accumulate_block(grad_blocks_[b]);
                        step_block(grad_blocks_[b], 1.0);
                    },
                    config_.train_threads);
            }

            // Serial tail: the loss sums, in row order.
            for (std::size_t r = 0; r < rows; ++r) {
                policy_loss_sum += -surrogate_batch_[r];
                entropy_sum += entropy_batch_[r];
                kl_sum += kl_batch_[r];
                value_loss_sum += value_loss_batch_[r];
            }
            sample_count += rows;
        }
    }
    finish_optimize(stats, kl_sum, policy_loss_sum, value_loss_sum, entropy_sum, sample_count);
}

void PpoTrainer::optimize_scalar(PpoIterationStats& stats) {
    // Legacy per-sample update (the pre-batching implementation), retained
    // as the bench_train_scale baseline and as an equivalence oracle: it
    // agrees with optimize_batched() to 1e-12 (the GEMM kernels' FMA
    // contraction is the only difference).
    const std::size_t n = buffer_.size();
    double kl_sum = 0.0;
    double policy_loss_sum = 0.0;
    double value_loss_sum = 0.0;
    double entropy_sum = 0.0;
    std::size_t sample_count = 0;

    for (std::size_t epoch = 0; epoch < config_.num_epochs; ++epoch) {
        rng_.permutation(std::span<std::uint32_t>(order_.data(), n));
        for (std::size_t start = 0; start < n; start += config_.minibatch_size) {
            const std::size_t end = std::min(n, start + config_.minibatch_size);
            const double inv_batch = 1.0 / static_cast<double>(end - start);
            std::fill(policy_grad_.begin(), policy_grad_.end(), 0.0);
            std::fill(value_grad_.begin(), value_grad_.end(), 0.0);

            for (std::size_t pos = start; pos < end; ++pos) {
                const std::size_t idx = order_[pos];
                const std::span<const double> obs = buffer_.observation(idx);
                const std::span<const double> action = buffer_.action(idx);
                const double advantage = buffer_.advantage(idx);
                const double value_target = buffer_.value_target(idx);

                // --- policy terms ---
                const GaussianPolicy::Eval eval =
                    policy_.evaluate(obs, action, scalar_policy_ws_);
                const double ratio = std::exp(eval.log_prob - buffer_.log_prob(idx));
                const double clipped =
                    std::clamp(ratio, 1.0 - config_.clip_param, 1.0 + config_.clip_param);
                const double surrogate = std::min(ratio * advantage, clipped * advantage);
                const double kl =
                    GaussianPolicy::kl(buffer_.old_mean(idx), buffer_.old_log_std(idx),
                                       eval.moments.mean, eval.moments.log_std);

                const bool unclipped_active = ratio * advantage <= clipped * advantage;
                const double d_logp =
                    unclipped_active ? -advantage * ratio * inv_batch : 0.0;
                const double d_entropy = -config_.entropy_coeff * inv_batch;
                const double d_kl = kl_coeff_ * inv_batch;
                const std::span<const double> om = buffer_.old_mean(idx);
                const std::span<const double> ol = buffer_.old_log_std(idx);
                old_moments_scratch_.mean.assign(om.begin(), om.end());
                old_moments_scratch_.log_std.assign(ol.begin(), ol.end());
                policy_.backward(scalar_policy_ws_, eval, action, d_logp, d_entropy, d_kl,
                                 &old_moments_scratch_, policy_grad_);

                // --- value term (clipped squared error, RLlib-style) ---
                const double value = value_net_.forward_cached(obs, scalar_value_ws_)[0];
                const double error = value - value_target;
                const double sq = error * error;
                double d_value = 0.0;
                if (sq <= config_.vf_clip_param) {
                    d_value = config_.vf_loss_coeff * 2.0 * error * inv_batch;
                }
                const std::array<double, 1> grad_out{d_value};
                value_net_.backward(scalar_value_ws_, grad_out, value_grad_);

                policy_loss_sum += -surrogate;
                value_loss_sum += std::min(sq, config_.vf_clip_param);
                entropy_sum += eval.entropy;
                kl_sum += kl;
                ++sample_count;
            }
            policy_opt_.step(policy_.network().parameters(), policy_grad_,
                             config_.max_grad_norm);
            value_opt_.step(value_net_.parameters(), value_grad_, config_.max_grad_norm);
        }
    }
    finish_optimize(stats, kl_sum, policy_loss_sum, value_loss_sum, entropy_sum, sample_count);
}

void PpoTrainer::optimize_phase(PpoIterationStats& stats) {
    if (config_.batched_update) {
        optimize_batched(stats);
    } else {
        optimize_scalar(stats);
    }
}

void PpoTrainer::record_iteration_telemetry(const PpoIterationStats& stats,
                                            double collect_seconds, double update_seconds) {
    TelemetrySession* session = config_.telemetry;
    if (session == nullptr || !session->metrics_enabled()) {
        return;
    }
    MetricsRow& row = telemetry_row_;
    row.reset("ppo_iter", static_cast<std::int64_t>(history_.size()));
    row.push_int("timesteps_total", static_cast<std::int64_t>(stats.timesteps_total));
    row.push_int("episodes_completed", static_cast<std::int64_t>(stats.episodes_completed));
    row.push("mean_episode_return", stats.mean_episode_return);
    row.push("mean_kl", stats.mean_kl);
    row.push("policy_loss", stats.policy_loss);
    row.push("value_loss", stats.value_loss);
    row.push("entropy", stats.entropy);
    row.push("kl_coeff", stats.kl_coeff);
    row.push("collect_seconds", collect_seconds);
    row.push("update_seconds", update_seconds);
    session->sink().write_row(row);
}

PpoIterationStats PpoTrainer::train_iteration() {
    PpoIterationStats stats;
    trace::Stopwatch watch;
    {
        trace::ScopedSpan span(tracer_, "ppo_collect");
        collect_phase(stats);
    }
    const double collect_seconds = watch.seconds();
    watch.restart();
    {
        trace::ScopedSpan span(tracer_, "ppo_update");
        optimize_phase(stats);
    }
    record_iteration_telemetry(stats, collect_seconds, watch.seconds());
    history_.push_back(stats);
    return stats;
}

std::vector<PpoIterationStats> PpoTrainer::train(
    std::size_t iterations, const std::function<void(const PpoIterationStats&)>& on_iteration) {
    for (std::size_t i = 0; i < iterations; ++i) {
        const PpoIterationStats stats = train_iteration();
        if (on_iteration) {
            on_iteration(stats);
        }
    }
    return history_;
}

double PpoTrainer::evaluate(std::size_t episodes) {
    if (episodes == 0) {
        throw std::invalid_argument("PpoTrainer::evaluate: episodes must be positive");
    }
    double total = 0.0;
    for (std::size_t e = 0; e < episodes; ++e) {
        std::vector<double> obs = eval_env_->reset(eval_rng_);
        double episode_return = 0.0;
        while (true) {
            const std::vector<double> action = policy_.mean_action(obs);
            Env::StepResult step = eval_env_->step(action, eval_rng_);
            episode_return += step.reward;
            if (step.done) {
                break;
            }
            obs = std::move(step.observation);
        }
        total += episode_return;
    }
    return total / static_cast<double>(episodes);
}

} // namespace mflb::rl
