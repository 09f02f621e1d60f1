#include "common/logging.hh"

#include <cstdlib>
#include <iostream>
#include <mutex>

namespace pcbp
{

namespace
{

/**
 * The one stderr gate: every diagnostic line goes out under this
 * mutex, whole or not at all, so parallelFor workers warning
 * concurrently (e.g. two sweep cells hitting torn-store recovery)
 * never interleave fragments of each other's lines.
 */
std::mutex &
sinkMutex()
{
    static std::mutex m;
    return m;
}

/** Capture buffer for ScopedLogCapture; null = write stderr. */
std::vector<std::string> *captureBuf = nullptr;

void
emitLine(const std::string &line)
{
    std::lock_guard<std::mutex> lk(sinkMutex());
    if (captureBuf) {
        captureBuf->push_back(line);
        return;
    }
    std::cerr << line << "\n" << std::flush;
}

} // namespace

LogLevel
logLevel()
{
    static const LogLevel level = [] {
        const char *env = std::getenv("PCBP_LOG_LEVEL");
        if (!env)
            return LogLevel::Info;
        const std::string v(env);
        if (v == "quiet" || v == "error" || v == "0")
            return LogLevel::Error;
        if (v == "warn" || v == "1")
            return LogLevel::Warn;
        if (v == "info" || v == "2")
            return LogLevel::Info;
        // Unrecognized: keep the default and say so (once).
        std::cerr << "warn: ignoring PCBP_LOG_LEVEL='" << v
                  << "' (want quiet|warn|info)\n";
        return LogLevel::Info;
    }();
    return level;
}

void
logRawLine(const std::string &line)
{
    emitLine(line);
}

ScopedLogCapture::ScopedLogCapture()
{
    static std::vector<std::string> buf;
    std::lock_guard<std::mutex> lk(sinkMutex());
    buf.clear();
    captureBuf = &buf;
}

ScopedLogCapture::~ScopedLogCapture()
{
    std::lock_guard<std::mutex> lk(sinkMutex());
    captureBuf = nullptr;
}

std::vector<std::string>
ScopedLogCapture::lines() const
{
    std::lock_guard<std::mutex> lk(sinkMutex());
    // captureBuf is set for the lifetime of this object.
    return captureBuf ? *captureBuf : std::vector<std::string>{};
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    emitLine("panic: " + msg + "\n  at " + file + ":" +
             std::to_string(line));
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    emitLine("fatal: " + msg + "\n  at " + file + ":" +
             std::to_string(line));
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() < LogLevel::Warn)
        return;
    emitLine("warn: " + msg);
}

} // namespace pcbp
