/**
 * @file
 * Shared pieces of the host-time benchmark harness: the monotonic
 * clock, the output digest, sample summaries, the workload shapes
 * and a minimal JSON writer.
 *
 * The harness only calls the simulator's public headers; nothing in
 * the library knows it is being measured.
 */

#ifndef HERMES_PERFBENCH_HARNESS_HH
#define HERMES_PERFBENCH_HARNESS_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

/**
 * CLOCK_MONOTONIC seconds.  run.py reads the same clock
 * (time.monotonic) just before it spawns the harness, so a timestamp
 * passed on the command line marks the process start.
 */
double monoNow();

/** FNV-1a over the exact bit patterns of the values fed to it. */
class Digest
{
  public:
    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ULL;
        }
    }

    void u64(std::uint64_t value) { bytes(&value, sizeof(value)); }

    void
    f64(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &text)
    {
        u64(text.size());
        bytes(text.data(), text.size());
    }

    std::string hex() const;

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Durations of repeated calls to one unit of work. */
struct Samples
{
    std::vector<double> values;

    void add(double value) { values.push_back(value); }

    /** Nearest-rank percentile, p in [0, 100]; 0 when empty. */
    double percentile(double p) const;
};

/** The three workloads the benchmark defines. */
enum class Workload
{
    OfflineSweep,
    ChatSessions,
    FleetScale,
};

/** Parse a workload name; throws std::invalid_argument. */
Workload workloadByName(const std::string &name);

/**
 * The operating point a workload drives the layers at: the per-layer
 * replays use it so their inputs are shaped like the workload's own.
 */
struct Shape
{
    std::string model;
    std::uint32_t batch = 1;
    std::uint64_t context = 128; ///< Decode context length.
};

Shape shapeOf(Workload workload);

/** Insertion-ordered flat-or-nested JSON object writer. */
class Json
{
  public:
    Json &num(const std::string &key, double value);
    Json &integer(const std::string &key, std::uint64_t value);
    Json &text(const std::string &key, const std::string &value);
    Json &raw(const std::string &key, const std::string &rendered);

    std::string dump() const;

  private:
    std::vector<std::pair<std::string, std::string>> entries_;
};

/** A JSON array of already-rendered elements. */
std::string jsonArray(const std::vector<std::string> &rendered);

/** Options of one question run. */
struct QuestionOptions
{
    Workload workload = Workload::OfflineSweep;
    std::uint64_t seed = 1;
    bool trace = false;

    /**
     * Give the first Hermes op the wrong activation-trace seed: the
     * output check must catch it as a failed op.
     */
    bool perturb = false;

    /** Process start on monoNow()'s clock (0: use main() entry). */
    double spawnTime = 0.0;
};

/**
 * Run one workload question and render its report: setup time, one
 * digest per op, issued work counters, and (traced) the spans around
 * the harness's calls plus the fleet kernel's own counters.
 */
std::string runQuestion(const QuestionOptions &options);

/**
 * Replay one unit of every simulator layer, shaped like `workload`,
 * for about `budget_s` seconds in total; render median/p90/calls per
 * layer metric.
 */
std::string runLayers(Workload workload, std::uint64_t seed,
                      double budget_s);

/** Render a Samples summary as {"p50", "p90", "calls"} scaled. */
std::string renderSamples(const Samples &samples, double scale);

} // namespace perfbench

#endif // HERMES_PERFBENCH_HARNESS_HH
