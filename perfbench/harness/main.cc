/**
 * @file
 * Command-line entry of the benchmark harness.
 *
 *   hbench question --workload W --seed N [--trace] [--perturb]
 *                   [--spawn-time T]
 *   hbench layers   --workload W --seed N [--budget S]
 *
 * `question` answers one workload question and prints one JSON line:
 * setup seconds, one output digest per simulated op, and (traced)
 * the spans around the harness's calls plus the fleet kernel's
 * counters.  `layers` replays one unit of every simulator layer with
 * inputs shaped like the workload and prints median/p90/calls per
 * layer metric.  perfbench/run.py drives both and does the timing
 * of whole processes.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <stdexcept>
#include <string>

#include "harness.hh"

namespace perfbench {

double
monoNow()
{
    timespec now{};
    clock_gettime(CLOCK_MONOTONIC, &now);
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
}

std::string
Digest::hex() const
{
    char buffer[20];
    std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash_);
    return buffer;
}

double
Samples::percentile(double p) const
{
    if (values.empty())
        return 0.0;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const double rank = std::ceil(p / 100.0 *
                                  static_cast<double>(sorted.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
    return sorted[index - 1];
}

Workload
workloadByName(const std::string &name)
{
    if (name == "offline-sweep")
        return Workload::OfflineSweep;
    if (name == "chat-sessions")
        return Workload::ChatSessions;
    if (name == "fleet-scale")
        return Workload::FleetScale;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

namespace {

/** `text` as a quoted, escaped JSON string. */
std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buffer;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

Json &
Json::raw(const std::string &key, const std::string &rendered)
{
    entries_.emplace_back(key, rendered);
    return *this;
}

Json &
Json::num(const std::string &key, double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    return raw(key, buffer);
}

Json &
Json::integer(const std::string &key, std::uint64_t value)
{
    return raw(key, std::to_string(value));
}

Json &
Json::text(const std::string &key, const std::string &value)
{
    return raw(key, jsonString(value));
}

std::string
Json::dump() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += jsonString(entries_[i].first) + ": " +
               entries_[i].second;
    }
    return out + "}";
}

std::string
jsonArray(const std::vector<std::string> &rendered)
{
    std::string out = "[";
    for (std::size_t i = 0; i < rendered.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += rendered[i];
    }
    return out + "]";
}

std::string
renderSamples(const Samples &samples, double scale)
{
    return Json()
        .num("p50", samples.percentile(50.0) * scale)
        .num("p90", samples.percentile(90.0) * scale)
        .integer("calls", samples.values.size())
        .dump();
}

} // namespace perfbench

namespace {

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "hbench: %s\n"
                 "usage: hbench question --workload W --seed N "
                 "[--trace] [--perturb] [--spawn-time T]\n"
                 "       hbench layers --workload W --seed N "
                 "[--budget S]\n",
                 message);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const double entry = monoNow();
    if (argc < 2)
        usage("missing mode");
    const std::string mode = argv[1];
    std::string workload_name;
    std::uint64_t seed = 1;
    double budget = 10.0;
    QuestionOptions options;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            workload_name = argv[++i];
        } else if (arg == "--seed" && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--budget" && has_value) {
            budget = std::strtod(argv[++i], nullptr);
        } else if (arg == "--spawn-time" && has_value) {
            options.spawnTime = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace") {
            options.trace = true;
        } else if (arg == "--perturb") {
            options.perturb = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    try {
        const Workload workload = workloadByName(workload_name);
        std::string report;
        if (mode == "question") {
            options.workload = workload;
            options.seed = seed;
            if (options.spawnTime <= 0.0)
                options.spawnTime = entry;
            report = runQuestion(options);
        } else if (mode == "layers") {
            report = runLayers(workload, seed, budget);
        } else {
            usage(("unknown mode " + mode).c_str());
        }
        std::printf("%s\n", report.c_str());
    } catch (const std::exception &error) {
        std::fprintf(stderr, "hbench: %s\n", error.what());
        return 1;
    }
    return std::fflush(stdout) == 0 ? 0 : 1;
}
