/**
 * @file
 * Deterministic random number generation for the simulation substrates.
 *
 * All stochastic components (neural signal generation, AWGN channel
 * noise, Monte-Carlo BER measurement) draw from an explicitly seeded
 * Rng so that every experiment in this repository is reproducible
 * bit-for-bit.
 */

#ifndef MINDFUL_BASE_RANDOM_HH
#define MINDFUL_BASE_RANDOM_HH

#include <cstdint>
#include <random>

namespace mindful {

/**
 * Thin, explicitly-seeded wrapper around std::mt19937_64.
 *
 * Independent sub-streams come from fork(): each distinct stream
 * index yields a child whose seed is a splitmix64 mix of the parent
 * seed and the index. Never seed a child engine from a raw bits()
 * draw of the parent — consecutive mt19937_64 outputs make poor
 * seeds and the resulting streams are correlated; fork() exists so
 * every shard / restart / channel gets a well-mixed stream that is
 * reproducible independent of how many threads consume them.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x4d494e44ull)
        : _seed(seed), _engine(seed)
    {
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(_engine);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(_engine);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(_engine);
    }

    /** Standard normal draw scaled to the given mean / stddev. */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
        return std::normal_distribution<double>(mean, stddev)(_engine);
    }

    /** Bernoulli draw with probability p of true. */
    bool
    bernoulli(double p)
    {
        return std::bernoulli_distribution(p)(_engine);
    }

    /** Raw 64-bit draw (for hashing; use fork() for sub-streams). */
    std::uint64_t bits() { return _engine(); }

    std::mt19937_64 &engine() { return _engine; }

    /** The seed this Rng (or fork) was constructed with. */
    std::uint64_t seed() const { return _seed; }

    /**
     * Independent child stream @p stream, derived from the *seed*
     * (not the current engine position): fork(i) always denotes the
     * same stream for a given parent, so shard i of a parallel
     * Monte-Carlo draws identical values whether one thread or
     * sixteen execute the shards. Forks of forks chain the mix, so
     * hierarchical stream trees stay independent.
     */
    Rng
    fork(std::uint64_t stream) const
    {
        return Rng(splitmix64(splitmix64(_seed) ^ splitmix64(~stream)));
    }

    /** One round of the splitmix64 output mix (public for tests). */
    static constexpr std::uint64_t
    splitmix64(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

  private:
    std::uint64_t _seed;
    std::mt19937_64 _engine;
};

} // namespace mindful

#endif // MINDFUL_BASE_RANDOM_HH
