/**
 * @file
 * Logging and error-reporting helpers in the spirit of gem5's
 * base/logging.hh.
 *
 * Severity model:
 *  - inform(): status messages, no connotation of incorrect behaviour.
 *  - warn():   something may be off; simulation continues.
 *  - User errors (bad configuration, invalid arguments) throw a
 *    standard exception with a message; library code never exits.
 *  - panic():  an internal invariant was violated (a simulator bug).
 *              Aborts so a core dump / debugger can be used.
 */

#ifndef HERMES_COMMON_LOGGING_HH
#define HERMES_COMMON_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

namespace hermes {

/** Verbosity levels for the global logger. */
enum class LogLevel { Silent = 0, Warning = 1, Info = 2, Debug = 3 };

/**
 * Process-wide logging configuration.  The level can be lowered in
 * benchmarks to suppress informational output.
 */
class Logger
{
  public:
    /** Return the singleton logger. */
    static Logger &instance();

    LogLevel level() const { return level_; }
    void setLevel(LogLevel level) { level_ = level; }

    /** Emit a message at the given level to stderr. */
    void emit(LogLevel level, const std::string &tag,
              const std::string &message);

  private:
    Logger() = default;

    LogLevel level_ = LogLevel::Warning;
};

namespace detail {

/** Fold a variadic argument pack into a string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &message);

} // namespace detail

/** Emit an informational message. */
template <typename... Args>
void
inform(Args &&...args)
{
    Logger::instance().emit(LogLevel::Info, "info",
                            detail::concat(std::forward<Args>(args)...));
}

/** Emit a warning message. */
template <typename... Args>
void
warn(Args &&...args)
{
    Logger::instance().emit(LogLevel::Warning, "warn",
                            detail::concat(std::forward<Args>(args)...));
}

/** Emit a debug message (only shown at LogLevel::Debug). */
template <typename... Args>
void
debugLog(Args &&...args)
{
    Logger::instance().emit(LogLevel::Debug, "debug",
                            detail::concat(std::forward<Args>(args)...));
}

/**
 * Terminate due to an internal invariant violation (a simulator bug).
 * Mirrors gem5's panic(): abort() so the failure is debuggable.
 */
#define hermes_panic(...)                                                   \
    ::hermes::detail::panicImpl(__FILE__, __LINE__,                         \
                                ::hermes::detail::concat(__VA_ARGS__))

/** Panic when a runtime invariant does not hold. */
#define hermes_assert(cond, ...)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::hermes::detail::panicImpl(                                    \
                __FILE__, __LINE__,                                         \
                ::hermes::detail::concat("assertion failed: " #cond " ",   \
                                         ##__VA_ARGS__));                   \
        }                                                                   \
    } while (0)

} // namespace hermes

#endif // HERMES_COMMON_LOGGING_HH
