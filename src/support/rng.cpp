#include "support/rng.hpp"

#include <cmath>
#include <numbers>

namespace mflb {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {
/// ln Γ(x). std::lgamma also stores the sign of Γ(x) in the global
/// `signgam`, a data race when shard streams sample binomials on several
/// threads at once; glibc's lgamma_r computes the same value and keeps the
/// sign local.
double log_gamma(double x) noexcept {
#if defined(__GLIBC__)
    int sign = 0;
    return ::lgamma_r(x, &sign);
#else
    return std::lgamma(x);
#endif
}
} // namespace

Rng::Rng(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    for (auto& word : state_) {
        word = splitmix64(s);
    }
}

void Rng::long_jump() noexcept {
    static constexpr std::uint64_t kJump[] = {0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL,
                                              0x77710069854ee241ULL, 0x39109bb02acbe635ULL};
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::uint64_t jump : kJump) {
        for (int b = 0; b < 64; ++b) {
            if (jump & (std::uint64_t{1} << b)) {
                s0 ^= state_[0];
                s1 ^= state_[1];
                s2 ^= state_[2];
                s3 ^= state_[3];
            }
            (*this)();
        }
    }
    state_ = {s0, s1, s2, s3};
}

Rng Rng::split() noexcept {
    Rng child = *this;
    child.long_jump();
    // Perturb the child with a fresh draw so repeated splits from the same
    // parent state yield distinct streams.
    std::uint64_t salt = (*this)();
    child.state_[0] ^= splitmix64(salt);
    child.has_spare_normal_ = false;
    return child;
}

Rng Rng::fork(std::uint64_t stream_id) const noexcept {
    // Absorb the parent state and the stream id into one splitmix64 chain,
    // then expand it into the child's four state words. The chain position
    // after absorbing each word depends on every bit absorbed so far, so
    // (state, id) pairs that differ anywhere yield unrelated child states.
    std::uint64_t chain = 0x8febc107889b2f35ULL ^ stream_id;
    for (std::uint64_t word : state_) {
        chain ^= splitmix64(chain) ^ word;
    }
    Rng child(0);
    for (auto& word : child.state_) {
        word = splitmix64(chain);
    }
    return child;
}

double Rng::uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_below(std::uint64_t n) noexcept {
    // Lemire's multiply-shift rejection method: unbiased and fast.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto low = static_cast<std::uint64_t>(m);
    if (low < n) {
        const std::uint64_t threshold = (0 - n) % n;
        while (low < threshold) {
            x = (*this)();
            m = static_cast<__uint128_t>(x) * n;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double Rng::exponential(double rate) noexcept {
    // Inversion on (0,1]: avoids log(0).
    double u = 1.0 - uniform();
    return -std::log(u) / rate;
}

ExpZiggurat ExpZiggurat::build() noexcept {
    // Marsaglia & Tsang's set-up with 2⁵³ for 2³²: down from x_255 = r, each
    // lower edge x_{i−1} leaves area v in layer i (the top layer is all wedge).
    constexpr double kScale = 0x1.0p53;
    ExpZiggurat z{};
    const double base_width = kArea / std::exp(-kTail); // r + 1
    z.layers[0] = {static_cast<std::uint64_t>(kTail / base_width * kScale), base_width / kScale};
    z.density[0] = 1.0;
    double x = kTail;
    for (int i = 255; i >= 1; --i) {
        const double lower = i > 1 ? -std::log(kArea / x + std::exp(-x)) : 0.0;
        z.layers[i] = {static_cast<std::uint64_t>(lower / x * kScale), x / kScale};
        z.density[i] = std::exp(-x);
        x = lower;
    }
    return z;
}

double Rng::exponential_outside(const ExpZiggurat& zig, std::uint64_t bits) noexcept {
    const std::size_t i = bits & 0xff;
    if (i == 0) {
        return ExpZiggurat::kTail + standard_exponential(zig); // X | X > r is r + Exp(1)
    }
    const double x = static_cast<double>(bits >> 11) * zig.layers[i].scale;
    const double y = zig.density[i] + uniform() * (zig.density[i - 1] - zig.density[i]);
    return y < std::exp(-x) ? x : standard_exponential(zig); // wedge: accept or retry
}

double Rng::normal() noexcept {
    if (has_spare_normal_) {
        has_spare_normal_ = false;
        return spare_normal_;
    }
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    spare_normal_ = r * std::sin(theta);
    has_spare_normal_ = true;
    return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
}

std::uint64_t Rng::poisson(double mean) noexcept {
    if (mean <= 0.0) {
        return 0;
    }
    if (mean < 30.0) {
        // Knuth inversion via products of uniforms.
        const double limit = std::exp(-mean);
        std::uint64_t count = 0;
        double product = uniform();
        while (product > limit) {
            ++count;
            product *= uniform();
        }
        return count;
    }
    // Split recursively: Pois(m) = Pois(m/2) + Pois(m/2). Depth is
    // logarithmic, so even huge means stay in the accurate small-mean branch.
    return poisson(mean * 0.5) + poisson(mean * 0.5);
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) noexcept {
    if (n == 0 || p <= 0.0) {
        return 0;
    }
    if (p >= 1.0) {
        return n;
    }
    if (p > 0.5) {
        return n - binomial(n, 1.0 - p);
    }
    const double mean = static_cast<double>(n) * p;
    if (n < 64 || mean < 12.0) {
        // BG (geometric skip) algorithm: expected cost O(np) draws.
        const double log_q = std::log1p(-p);
        std::uint64_t successes = 0;
        double sum = 0.0;
        while (true) {
            sum += std::log(1.0 - uniform()) / static_cast<double>(n - successes);
            if (sum < log_q || successes >= n) {
                break;
            }
            ++successes;
        }
        return successes > n ? n : successes;
    }
    // BTRS transformed-rejection sampler (Hormann 1993): exact and O(1)
    // expected draws for np >= 10, which makes the multinomial client
    // aggregation independent of N even at N = 10^6.
    const double nd = static_cast<double>(n);
    const double q = 1.0 - p;
    const double spq = std::sqrt(nd * p * q);
    const double b = 1.15 + 2.53 * spq;
    const double a = -0.0873 + 0.0248 * b + 0.01 * p;
    const double c = nd * p + 0.5;
    const double v_r = 0.92 - 4.2 / b;
    const double alpha = (2.83 + 5.1 / b) * spq;
    const double lpq = std::log(p / q);
    const double m = std::floor((nd + 1.0) * p);
    const double h = log_gamma(m + 1.0) + log_gamma(nd - m + 1.0);
    while (true) {
        const double u = uniform() - 0.5;
        double v = uniform();
        const double us = 0.5 - std::abs(u);
        const double kd = std::floor((2.0 * a / us + b) * u + c);
        if (kd < 0.0 || kd > nd) {
            continue;
        }
        if (us >= 0.07 && v <= v_r) {
            return static_cast<std::uint64_t>(kd);
        }
        v = std::log(v * alpha / (a / (us * us) + b));
        const double bound =
            h - log_gamma(kd + 1.0) - log_gamma(nd - kd + 1.0) + (kd - m) * lpq;
        if (v <= bound) {
            return static_cast<std::uint64_t>(kd);
        }
    }
}

bool Rng::bernoulli(double p) noexcept {
    return uniform() < p;
}

std::size_t Rng::categorical(std::span<const double> weights) noexcept {
    double total = 0.0;
    for (double w : weights) {
        total += w;
    }
    double target = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0) {
            return i;
        }
    }
    return weights.empty() ? 0 : weights.size() - 1;
}

std::vector<std::uint64_t> Rng::multinomial(std::uint64_t n,
                                            std::span<const double> probs) noexcept {
    std::vector<std::uint64_t> counts(probs.size(), 0);
    multinomial(n, probs, 1.0, counts);
    return counts;
}

void Rng::multinomial(std::uint64_t n, std::span<const double> weights, double total_weight,
                      std::span<std::uint64_t> counts) noexcept {
    std::fill(counts.begin(), counts.end(), 0);
    double remaining_mass = total_weight;
    std::uint64_t remaining_trials = n;
    for (std::size_t i = 0; i + 1 < weights.size() && remaining_trials > 0; ++i) {
        const double conditional =
            remaining_mass > 0.0 ? std::min(1.0, std::max(0.0, weights[i] / remaining_mass))
                                 : 0.0;
        const std::uint64_t draw = binomial(remaining_trials, conditional);
        counts[i] = draw;
        remaining_trials -= draw;
        remaining_mass -= weights[i];
    }
    if (!weights.empty()) {
        counts.back() += remaining_trials;
    }
}

std::vector<std::uint32_t> Rng::permutation(std::size_t n) noexcept {
    std::vector<std::uint32_t> perm(n);
    permutation(std::span<std::uint32_t>(perm));
    return perm;
}

void Rng::permutation(std::span<std::uint32_t> out) noexcept {
    const std::size_t n = out.size();
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(uniform_below(i));
        std::swap(out[i - 1], out[j]);
    }
}

} // namespace mflb
