/**
 * @file
 * Deterministic random number generation for reproducible simulation.
 *
 * Every stochastic component (trace generator, workload sampler) takes an
 * explicit seed so whole-system runs are bit-reproducible.  The engine is
 * xoshiro256** which is fast, tiny, and has no licensing constraints
 * (public domain reference implementation re-derived here).
 *
 * Its state transition is linear over GF(2), so advancing k steps is
 * multiplication by x^k modulo the transition's characteristic
 * polynomial: Rng::jumpPolynomial() computes that residue and
 * Rng::jump() applies it in 256 steps, whatever k is (Haramoto et
 * al., "Efficient Jump Ahead for F2-Linear Random Number
 * Generators", INFORMS J. Computing 2008; Blackman & Vigna,
 * "Scrambled Linear Pseudorandom Number Generators", ACM TOMS 2021).
 * That is what lets a consumer of one stream start at any offset of
 * it without drawing what lies before.
 */

#ifndef HERMES_COMMON_RNG_HH
#define HERMES_COMMON_RNG_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace hermes {

/**
 * A polynomial over GF(2) of degree below 256: coefficient i is bit
 * i % 64 of word i / 64.
 */
using JumpPolynomial = std::array<std::uint64_t, 4>;

namespace detail {

/** p * x modulo the characteristic polynomial (low words `low`). */
constexpr JumpPolynomial
timesX(const JumpPolynomial &p, const JumpPolynomial &low)
{
    const std::uint64_t carry = 0 - (p[3] >> 63);
    JumpPolynomial out{};
    for (int w = 3; w > 0; --w)
        out[w] = ((p[w] << 1) | (p[w - 1] >> 63)) ^ (low[w] & carry);
    out[0] = (p[0] << 1) ^ (low[0] & carry);
    return out;
}

/** x^(256 + i) modulo the characteristic polynomial, i < 256. */
constexpr std::array<JumpPolynomial, 256>
highPowers(const JumpPolynomial &low)
{
    std::array<JumpPolynomial, 256> powers{};
    powers[0] = low; // x^256 = its lower terms, modulo itself.
    for (std::size_t i = 1; i < powers.size(); ++i)
        powers[i] = timesX(powers[i - 1], low);
    return powers;
}

/** Spread the 32 bits of v to the even bits of a word (GF(2) square). */
constexpr std::uint64_t
spreadBits(std::uint64_t v)
{
    v &= 0xffffffffULL;
    v = (v | (v << 16)) & 0x0000ffff0000ffffULL;
    v = (v | (v << 8)) & 0x00ff00ff00ff00ffULL;
    v = (v | (v << 4)) & 0x0f0f0f0f0f0f0f0fULL;
    v = (v | (v << 2)) & 0x3333333333333333ULL;
    v = (v | (v << 1)) & 0x5555555555555555ULL;
    return v;
}

} // namespace detail

/**
 * xoshiro256** pseudo random generator with helpers for the
 * distributions used by the sparsity substrate.
 */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of a single 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            // splitmix64 step.
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /**
     * Coefficients 0..255 of the characteristic polynomial of the
     * state transition; the x^256 term is implicit.  Pinned: the
     * tests re-derive it from the generator by Berlekamp-Massey.
     */
    static constexpr JumpPolynomial kCharacteristic = {
        0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
        0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        advance();
        return result;
    }

    /**
     * x^steps modulo kCharacteristic: the polynomial jump() applies
     * to skip `steps` draws.  A few microseconds: one squaring per
     * bit of `steps`.
     */
    static JumpPolynomial
    jumpPolynomial(std::uint64_t steps)
    {
        static constexpr std::array<JumpPolynomial, 256> kHighPowers =
            detail::highPowers(kCharacteristic);
        JumpPolynomial power{1, 0, 0, 0};
        for (int bit = 63 - std::countl_zero(steps); bit >= 0; --bit) {
            // Square: the bits spread apart, then the upper half
            // folds back through x^(256 + i).
            JumpPolynomial square{};
            for (int w = 0; w < 4; ++w) {
                const std::uint64_t low = detail::spreadBits(power[w]);
                const std::uint64_t high =
                    detail::spreadBits(power[w] >> 32);
                if (w < 2) {
                    square[2 * w] = low;
                    square[2 * w + 1] = high;
                    continue;
                }
                const int base = 128 * (w - 2);
                for (std::uint64_t bits = low; bits != 0;
                     bits &= bits - 1)
                    xorInto(square,
                            kHighPowers[base + std::countr_zero(bits)]);
                for (std::uint64_t bits = high; bits != 0;
                     bits &= bits - 1)
                    xorInto(square, kHighPowers[base + 64 +
                                                std::countr_zero(bits)]);
            }
            power = ((steps >> bit) & 1) != 0
                        ? detail::timesX(square, kCharacteristic)
                        : square;
        }
        return power;
    }

    /**
     * Advance the stream by the steps `poly` encodes (x^k modulo
     * kCharacteristic skips k draws): the state becomes
     * sum_i poly_i * T^i(state), T the transition.  256 transitions,
     * about a microsecond, however far it jumps.
     */
    void
    jump(const JumpPolynomial &poly)
    {
        std::uint64_t sum[4] = {0, 0, 0, 0};
        for (const std::uint64_t word : poly) {
            for (int b = 0; b < 64; ++b) {
                const std::uint64_t take = 0 - ((word >> b) & 1);
                for (int w = 0; w < 4; ++w)
                    sum[w] ^= state_[w] & take;
                advance();
            }
        }
        state_ = {sum[0], sum[1], sum[2], sum[3]};
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Rejection-free Lemire-style bounded draw; the tiny modulo bias
        // of the naive approach is irrelevant for bounds << 2^64 but we
        // use the multiply-shift reduction anyway.
        unsigned __int128 product =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(product >> 64);
    }

    /** Bernoulli draw with probability p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /** The 256-bit state: equal states draw equal streams. */
    const std::array<std::uint64_t, 4> &state() const { return state_; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    static void
    xorInto(JumpPolynomial &into, const JumpPolynomial &term)
    {
        for (int w = 0; w < 4; ++w)
            into[w] ^= term[w];
    }

    /** The linear state transition T. */
    void
    advance()
    {
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
    }

    std::array<std::uint64_t, 4> state_;
};

} // namespace hermes

#endif // HERMES_COMMON_RNG_HH
