#include "common/logging.hh"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace hermes {

Logger &
Logger::instance()
{
    static Logger logger;
    return logger;
}

void
Logger::emit(LogLevel level, const std::string &tag,
             const std::string &message)
{
    if (static_cast<int>(level) > static_cast<int>(level_))
        return;
    std::fprintf(stderr, "[%s] %s\n", tag.c_str(), message.c_str());
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &message)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", message.c_str(), file,
                 line);
    std::abort();
}

} // namespace detail
} // namespace hermes
