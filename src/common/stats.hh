/**
 * @file
 * Lightweight statistics collection.
 *
 * Device models and engines publish named scalar counters and
 * distributions into a StatSet; benches and tests read them back to
 * build figure tables and to assert invariants.
 */

#ifndef HERMES_COMMON_STATS_HH
#define HERMES_COMMON_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace hermes {

/** Accumulating scalar statistic. */
class Counter
{
  public:
    void add(double value) { sum_ += value; ++samples_; }
    void set(double value) { sum_ = value; samples_ = 1; }
    void reset() { sum_ = 0.0; samples_ = 0; }

    double value() const { return sum_; }
    std::uint64_t samples() const { return samples_; }
    double
    mean() const
    {
        return samples_ == 0 ? 0.0 : sum_ / static_cast<double>(samples_);
    }

  private:
    double sum_ = 0.0;
    std::uint64_t samples_ = 0;
};

/** Online distribution statistic (min/max/mean/stddev). */
class Distribution
{
  public:
    void
    sample(double value)
    {
        ++n_;
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
        const double delta = value - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (value - mean_);
    }

    void
    reset()
    {
        n_ = 0;
        mean_ = 0.0;
        m2_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

    std::uint64_t count() const { return n_; }
    double mean() const { return mean_; }
    double min() const { return n_ == 0 ? 0.0 : min_; }
    double max() const { return n_ == 0 ? 0.0 : max_; }
    double
    stddev() const
    {
        if (n_ < 2)
            return 0.0;
        return std::sqrt(m2_ / static_cast<double>(n_ - 1));
    }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Named collection of counters and distributions.  Lookup lazily
 * creates the statistic so producers do not need a registration phase.
 */
class StatSet
{
  public:
    Counter &counter(const std::string &name) { return counters_[name]; }
    Distribution &
    distribution(const std::string &name)
    {
        return distributions_[name];
    }

    bool
    hasCounter(const std::string &name) const
    {
        return counters_.count(name) > 0;
    }

    /** Read a counter; throws std::out_of_range if never produced. */
    double
    counterValue(const std::string &name) const
    {
        auto it = counters_.find(name);
        if (it == counters_.end())
            throw std::out_of_range("unknown counter '" + name + "'");
        return it->second.value();
    }

    void
    reset()
    {
        for (auto &entry : counters_)
            entry.second.reset();
        for (auto &entry : distributions_)
            entry.second.reset();
    }

    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Distribution> &distributions() const
    {
        return distributions_;
    }

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Distribution> distributions_;
};

} // namespace hermes

#endif // HERMES_COMMON_STATS_HH
