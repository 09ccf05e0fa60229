#include "common/logging.hh"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace gpr {
namespace {

std::mutex log_mutex;
std::atomic<bool> inform_enabled{true};

} // namespace

namespace detail {

void
logMessage(const char* level, const std::string& msg)
{
    if (std::string_view(level) == "info" &&
        !inform_enabled.load(std::memory_order_relaxed)) {
        return;
    }
    std::lock_guard<std::mutex> lock(log_mutex);
    std::fprintf(stderr, "[%s] %s\n", level, msg.c_str());
    std::fflush(stderr);
}

} // namespace detail

void
setInformEnabled(bool enabled)
{
    inform_enabled.store(enabled, std::memory_order_relaxed);
}

int
runToolMain(int (*body)(int, char**), int argc, char** argv)
{
    try {
        return body(argc, argv);
    } catch (const FatalError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}

} // namespace gpr
