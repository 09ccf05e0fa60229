/**
 * @file
 * Error-reporting and logging primitives, following the gem5 convention:
 *
 *  - panic():  something happened that should never happen regardless of
 *              user input — an internal bug.  Aborts (throws PanicError so
 *              tests can observe it; the default terminate handler aborts).
 *  - fatal():  the run cannot continue because of a *user* error (bad
 *              configuration, malformed assembly, ...).  Throws FatalError
 *              and prints nothing: a caller may catch it (a torn store
 *              line is skipped), and runToolMain reports an uncaught one
 *              once, as "error: ...".
 *  - warn()/inform(): non-fatal status messages on stderr.
 *
 * Simulation traps caused by injected faults are NOT errors and never go
 * through these functions; they are reported as data (see sim/trap.hh).
 */

#ifndef GPR_COMMON_LOGGING_HH
#define GPR_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace gpr {

/** Thrown by panic(); indicates an internal invariant violation (a bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string& msg) : std::logic_error(msg) {}
};

/** Thrown by fatal(); indicates a user/configuration error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string& msg) : std::runtime_error(msg) {}
};

namespace detail {

void logMessage(const char* level, const std::string& msg);

template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Report an internal bug and abort the current operation. */
template <typename... Args>
[[noreturn]] void
panic(Args&&... args)
{
    std::string msg = detail::concat(std::forward<Args>(args)...);
    detail::logMessage("panic", msg);
    throw PanicError(msg);
}

/** Report an unrecoverable user error (throws; see the file comment). */
template <typename... Args>
[[noreturn]] void
fatal(Args&&... args)
{
    throw FatalError(detail::concat(std::forward<Args>(args)...));
}

/** Report a suspicious-but-survivable condition. */
template <typename... Args>
void
warn(Args&&... args)
{
    detail::logMessage("warn", detail::concat(std::forward<Args>(args)...));
}

/** Report normal operating status. */
template <typename... Args>
void
inform(Args&&... args)
{
    detail::logMessage("info", detail::concat(std::forward<Args>(args)...));
}

/** Enable/disable inform() output (benchmarks silence it). */
void setInformEnabled(bool enabled);

/**
 * Run a command-line tool's main body: a FatalError escaping it (a bad
 * workload, GPU or spec name, ...) prints "error: <message>" on stderr
 * and yields exit status 2 instead of aborting the process.
 */
int runToolMain(int (*body)(int, char**), int argc, char** argv);

/**
 * Internal invariant check.  Unlike assert(), stays on in release builds:
 * reliability numbers must never be produced by a silently-broken simulator.
 */
#define GPR_ASSERT(cond, ...)                                                \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::gpr::panic("assertion '", #cond, "' failed at ", __FILE__,     \
                         ":", __LINE__, " ", ##__VA_ARGS__);                 \
        }                                                                    \
    } while (0)

} // namespace gpr

#endif // GPR_COMMON_LOGGING_HH
