/**
 * @file
 * Shared helpers for the figure-reproduction benches.
 *
 * Every bench prints the rows/series of one paper figure.  Absolute
 * tokens/s will not match the authors' testbed (see DESIGN.md), but
 * orderings and ratios should.  Benches run on a reduced layer
 * sample (statistics are per-layer i.i.d.) so the whole suite
 * finishes in minutes.
 */

#ifndef HERMES_BENCH_BENCH_UTIL_HH
#define HERMES_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "core/hermes.hh"

namespace hermes::bench {

/**
 * Tiny `--key value` / `--flag` command-line parser shared by the
 * benches, so sweeps are configurable instead of hardcoded.
 *
 * Usage: query every option first (each query registers the option
 * for the usage text), then call finish(); it prints the usage and
 * exits on `--help` or any unrecognized argument.
 */
class Args
{
  public:
    Args(int argc, char **argv) : program_(argv[0])
    {
        for (int i = 1; i < argc; ++i)
            tokens_.push_back(argv[i]);
        consumed_.assign(tokens_.size(), false);
    }

    /** Presence flag, e.g. `--smoke`. */
    bool
    flag(const std::string &name, const std::string &help)
    {
        registerOption("--" + name, help);
        for (std::size_t i = 0; i < tokens_.size(); ++i) {
            if (tokens_[i] == "--" + name) {
                consumed_[i] = true;
                return true;
            }
        }
        return false;
    }

    /** String option, e.g. `--scenario bursty`. */
    std::string
    str(const std::string &name, const std::string &fallback,
        const std::string &help)
    {
        registerOption("--" + name + " <value>",
                       help + " (default: " + fallback + ")");
        for (std::size_t i = 0; i < tokens_.size(); ++i) {
            if (tokens_[i] == "--" + name &&
                i + 1 < tokens_.size()) {
                consumed_[i] = true;
                consumed_[i + 1] = true;
                return tokens_[i + 1];
            }
        }
        return fallback;
    }

    /** Unsigned integer option; rejects unparseable values. */
    std::uint32_t
    u32(const std::string &name, std::uint32_t fallback,
        const std::string &help)
    {
        const std::string value =
            str(name, std::to_string(fallback), help);
        // Digits only: strtoul would silently wrap a negative.
        if (value.empty() ||
            value.find_first_not_of("0123456789") !=
                std::string::npos)
            badValue(name, value);
        char *end = nullptr;
        const unsigned long parsed =
            std::strtoul(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0' ||
            parsed > UINT32_MAX)
            badValue(name, value);
        return static_cast<std::uint32_t>(parsed);
    }

    /**
     * Unsigned 64-bit option (e.g. `--seed`, whose full range the
     * workload generator accepts); rejects unparseable values and
     * values beyond UINT64_MAX.
     */
    std::uint64_t
    u64(const std::string &name, std::uint64_t fallback,
        const std::string &help)
    {
        const std::string value =
            str(name, std::to_string(fallback), help);
        // Digits only: strtoull would silently wrap a negative.
        if (value.empty() ||
            value.find_first_not_of("0123456789") !=
                std::string::npos)
            badValue(name, value);
        errno = 0;
        char *end = nullptr;
        const unsigned long long parsed =
            std::strtoull(value.c_str(), &end, 10);
        // ERANGE: the value overflowed UINT64_MAX and strtoull
        // clamped it — reject rather than silently saturate.
        if (end == value.c_str() || *end != '\0' ||
            errno == ERANGE)
            badValue(name, value);
        return static_cast<std::uint64_t>(parsed);
    }

    /**
     * Output-path option, e.g. `--json BENCH_fleet.json`.  Empty
     * (the default) means "don't write the file" — benches print
     * their human tables either way and only emit the
     * machine-readable mirror when asked.
     */
    std::string
    out(const std::string &name, const std::string &help)
    {
        registerOption("--" + name + " <path>", help);
        for (std::size_t i = 0; i < tokens_.size(); ++i) {
            if (tokens_[i] == "--" + name &&
                i + 1 < tokens_.size()) {
                consumed_[i] = true;
                consumed_[i + 1] = true;
                return tokens_[i + 1];
            }
        }
        return std::string();
    }

    /** Floating-point option; rejects unparseable values. */
    double
    f64(const std::string &name, double fallback,
        const std::string &help)
    {
        char fallback_text[32];
        std::snprintf(fallback_text, sizeof(fallback_text), "%g",
                      fallback);
        const std::string value = str(name, fallback_text, help);
        char *end = nullptr;
        const double parsed = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0')
            badValue(name, value);
        return parsed;
    }

    /** Validate: usage + exit on --help or leftover arguments. */
    void
    finish() const
    {
        bool unknown = false;
        bool help = false;
        for (std::size_t i = 0; i < tokens_.size(); ++i) {
            if (consumed_[i])
                continue;
            if (tokens_[i] == "--help" || tokens_[i] == "-h") {
                help = true;
                continue;
            }
            std::fprintf(stderr, "unknown argument: %s\n",
                         tokens_[i].c_str());
            unknown = true;
        }
        if (!unknown && !help)
            return;
        std::fprintf(stderr, "usage: %s [options]\n",
                     program_.c_str());
        for (const std::string &line : usage_)
            std::fprintf(stderr, "  %s\n", line.c_str());
        std::exit(help && !unknown ? 0 : 2);
    }

  private:
    [[noreturn]] void
    badValue(const std::string &name,
             const std::string &value) const
    {
        std::fprintf(stderr, "--%s: not a number: '%s'\n",
                     name.c_str(), value.c_str());
        std::exit(2);
    }

    void
    registerOption(const std::string &form,
                   const std::string &help)
    {
        char line[192];
        std::snprintf(line, sizeof(line), "%-24s %s", form.c_str(),
                      help.c_str());
        usage_.push_back(line);
    }

    std::string program_;
    std::vector<std::string> tokens_;
    std::vector<bool> consumed_;
    std::vector<std::string> usage_;
};

/** Escape `text` for a JSON string literal (quotes not added). */
inline std::string
jsonEscape(const std::string &text)
{
    std::string escaped;
    escaped.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"': escaped += "\\\""; break;
        case '\\': escaped += "\\\\"; break;
        case '\b': escaped += "\\b"; break;
        case '\f': escaped += "\\f"; break;
        case '\n': escaped += "\\n"; break;
        case '\r': escaped += "\\r"; break;
        case '\t': escaped += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                escaped += buffer;
            } else {
                escaped += c;
            }
        }
    }
    return escaped;
}

/**
 * Minimal flat JSON object — the machine-readable mirror of a
 * bench run (BENCH_*.json): string / integer / float / bool
 * values, insertion order preserved, no nesting.  The CI
 * regression checker (tools/check_bench_regression.py) reads these
 * files with a real JSON parser (the C++ tests carry a small
 * reader of their own to pin the emitter's escaping).
 */
class JsonObject
{
  public:
    void
    set(const std::string &key, const std::string &value)
    {
        // Appended, not `"\"" + ... + "\""`: GCC 12's -Wrestrict
        // misfires on that concatenation under -O2.
        std::string quoted(1, '"');
        quoted += jsonEscape(value);
        quoted += '"';
        entries_.push_back({key, std::move(quoted)});
    }

    void
    set(const std::string &key, const char *value)
    {
        set(key, std::string(value));
    }

    void
    setU64(const std::string &key, std::uint64_t value)
    {
        entries_.push_back({key, std::to_string(value)});
    }

    void
    setF64(const std::string &key, double value)
    {
        // %.17g survives a decimal round-trip for any double.
        char buffer[40];
        std::snprintf(buffer, sizeof(buffer), "%.17g", value);
        entries_.push_back({key, buffer});
    }

    void
    setBool(const std::string &key, bool value)
    {
        entries_.push_back({key, value ? "true" : "false"});
    }

    /** Render as one pretty-printed JSON object. */
    std::string
    dump() const
    {
        std::string text = "{\n";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            text += "  \"" + jsonEscape(entries_[i].key) +
                    "\": " + entries_[i].raw;
            if (i + 1 < entries_.size())
                text += ",";
            text += "\n";
        }
        text += "}\n";
        return text;
    }

    /** Write dump() to `path`; false (with perror) on failure. */
    bool
    writeFile(const std::string &path) const
    {
        std::FILE *file = std::fopen(path.c_str(), "w");
        if (file == nullptr) {
            std::perror(path.c_str());
            return false;
        }
        const std::string text = dump();
        const bool ok =
            std::fwrite(text.data(), 1, text.size(), file) ==
            text.size();
        return std::fclose(file) == 0 && ok;
    }

  private:
    struct Entry
    {
        std::string key;
        std::string raw; ///< Rendered token, quotes included.
    };

    std::vector<Entry> entries_;
};

/** Peak resident set size of this process in KiB (0 = unknown). */
inline std::uint64_t
peakRssKib()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    // macOS reports ru_maxrss in bytes, Linux in KiB.
    return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#endif
#else
    return 0;
#endif
}

/** Platform for bench runs: Sec. V-A1 defaults, 6-layer sample. */
inline SystemConfig
benchPlatform()
{
    SystemConfig config;
    config.simulatedLayers = 6;
    return config;
}

/** Workload for bench runs: 128/128 tokens, trimmed generation. */
inline InferenceRequest
benchRequest(const std::string &model, std::uint32_t batch = 1)
{
    InferenceRequest request =
        defaultRequest(model::modelByName(model), batch);
    request.generateTokens = 48; // Steady state reached by ~10 tokens.
    request.profileTokens = 32;
    return request;
}

/** Print a figure banner. */
inline void
banner(const char *figure, const char *title)
{
    std::printf("\n=== %s: %s ===\n", figure, title);
}

/** tokens/s or "N.P." for an unsupported (model, system) pair. */
inline std::string
rate(const InferenceResult &result)
{
    if (!result.supported)
        return "N.P.";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.2f",
                  result.tokensPerSecond);
    return buffer;
}

} // namespace hermes::bench

#endif // HERMES_BENCH_BENCH_UTIL_HH
