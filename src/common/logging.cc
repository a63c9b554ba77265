#include "common/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace krisp
{

namespace
{

const char *
levelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Inform: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Panic: return "panic";
      case LogLevel::Fatal: return "fatal";
    }
    return "?";
}

/** Threshold from KRISP_LOG_LEVEL, the one variable the library reads. */
LogLevel
initialLevel()
{
    const char *env = std::getenv("KRISP_LOG_LEVEL");
    if (env == nullptr)
        return LogLevel::Inform;
    if (std::strcmp(env, "debug") == 0)
        return LogLevel::Debug;
    if (std::strcmp(env, "info") == 0 || std::strcmp(env, "inform") == 0)
        return LogLevel::Inform;
    if (std::strcmp(env, "warn") == 0)
        return LogLevel::Warn;
    std::fprintf(stderr,
                 "warn: unknown KRISP_LOG_LEVEL '%s' "
                 "(expected debug|info|warn); using info\n", env);
    return LogLevel::Inform;
}

/**
 * Atomic so the parallel experiment harness can log from worker
 * threads while the threshold is read concurrently (writes still only
 * happen from test/tool setup code).
 */
std::atomic<LogLevel> &
threshold()
{
    static std::atomic<LogLevel> level{initialLevel()};
    return level;
}

} // namespace

void
setLogLevel(LogLevel level)
{
    threshold().store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return threshold().load(std::memory_order_relaxed);
}

bool
logLevelEnabled(LogLevel level)
{
    // panic/fatal are never filtered.
    return level >= LogLevel::Panic || level >= logLevel();
}

void
logMessage(LogLevel level, const char *where, const std::string &what)
{
    if (!logLevelEnabled(level))
        return;
    std::fprintf(stderr, "%s: %s (%s)\n", levelTag(level), what.c_str(),
                 where);
    std::fflush(stderr);
}

void
panicExit(const char *where, const std::string &what)
{
    logMessage(LogLevel::Panic, where, what);
    std::abort();
}

void
fatalExit(const char *where, const std::string &what)
{
    logMessage(LogLevel::Fatal, where, what);
    std::exit(1);
}

} // namespace krisp
