/**
 * @file
 * gem5-style status/error reporting: panic for internal invariant
 * violations, fatal for user/configuration errors, warn for
 * non-fatal conditions.
 */

#ifndef PCBP_COMMON_LOGGING_HH
#define PCBP_COMMON_LOGGING_HH

#include <functional>
#include <sstream>
#include <string>
#include <vector>

namespace pcbp
{

/** Print "panic: <msg>" and abort(). Use for internal bugs only. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Print "fatal: <msg>" and exit(1). Use for user errors. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print "warn: <msg>" to stderr and continue. */
void warnImpl(const std::string &msg);

/** Log verbosity, selected by the PCBP_LOG_LEVEL environment variable
 *  ("quiet"/"error", "warn", "info"; default info = everything). */
enum class LogLevel
{
    Error = 0, //!< only panic/fatal reach stderr
    Warn = 1,  //!< + pcbp_warn
    Info = 2   //!< + progress lines (default)
};

/** The effective level (PCBP_LOG_LEVEL, read once). */
LogLevel logLevel();

/**
 * Emit one complete line through the process-wide mutex-guarded log
 * sink. Every diagnostic writer — warn, panic/fatal preambles,
 * the progress heartbeat — funnels through here, so lines from
 * concurrent parallelFor workers never interleave mid-message.
 * Bypasses the level filter: callers filter before formatting.
 */
void logRawLine(const std::string &line);

/**
 * Test seam: while alive, logRawLine() appends lines here instead of
 * writing stderr. Not reentrant — one capture at a time.
 */
class ScopedLogCapture
{
  public:
    ScopedLogCapture();
    ~ScopedLogCapture();

    ScopedLogCapture(const ScopedLogCapture &) = delete;
    ScopedLogCapture &operator=(const ScopedLogCapture &) = delete;

    /** Captured lines, in emission order (copied under the sink lock). */
    std::vector<std::string> lines() const;
};

namespace detail
{

inline void
streamInto(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
streamInto(std::ostringstream &os, const T &value, const Rest &...rest)
{
    os << value;
    streamInto(os, rest...);
}

template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    streamInto(os, args...);
    return os.str();
}

} // namespace detail

} // namespace pcbp

#define pcbp_panic(...) \
    ::pcbp::panicImpl(__FILE__, __LINE__, ::pcbp::detail::concat(__VA_ARGS__))

#define pcbp_fatal(...) \
    ::pcbp::fatalImpl(__FILE__, __LINE__, ::pcbp::detail::concat(__VA_ARGS__))

#define pcbp_warn(...) \
    ::pcbp::warnImpl(::pcbp::detail::concat(__VA_ARGS__))

/** Panic when an internal invariant does not hold. */
#define pcbp_assert(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::pcbp::panicImpl(__FILE__, __LINE__,                           \
                ::pcbp::detail::concat("assertion '", #cond, "' failed ",   \
                                       ##__VA_ARGS__));                     \
        }                                                                   \
    } while (0)

/**
 * Hot-path invariant check: pcbp_assert in debug builds, compiled
 * out in optimized (NDEBUG) builds. Per-branch simulation loops run
 * these checks millions of times per second, where even an untaken
 * compare-and-branch costs measurable throughput and blocks
 * vectorization; the invariants still hold — they are just verified
 * by the debug and sanitizer configurations instead of every Release
 * run. The sanitizer CI build defines PCBP_FORCE_DASSERT so its
 * RelWithDebInfo binaries keep checking them. Cold-path and
 * construction-time checks stay pcbp_assert.
 */
#if !defined(NDEBUG) || defined(PCBP_FORCE_DASSERT)
#define pcbp_dassert(cond, ...) pcbp_assert(cond, ##__VA_ARGS__)
#else
#define pcbp_dassert(cond, ...) ((void)0)
#endif

#endif // PCBP_COMMON_LOGGING_HH
