#include "sim/fault_model.hh"

#include <array>
#include <string>

#include "common/logging.hh"

namespace gpr {
namespace {

constexpr std::array<std::string_view, kNumFaultBehaviors> kBehaviorNames = {
    "transient",
    "stuck-at-0",
    "stuck-at-1",
    "intermittent",
};

constexpr std::array<std::string_view, kNumFaultPatterns> kPatternNames = {
    "single",
    "adjacent-double",
    "adjacent-quad",
};

template <std::size_t N>
std::string
joinNames(const std::array<std::string_view, N>& names)
{
    std::string out;
    for (std::string_view n : names) {
        if (!out.empty())
            out += ", ";
        out += std::string(n);
    }
    return out;
}

} // namespace

std::vector<FaultBehavior>
allFaultBehaviors()
{
    std::vector<FaultBehavior> all;
    for (std::size_t i = 0; i < kNumFaultBehaviors; ++i)
        all.push_back(static_cast<FaultBehavior>(i));
    return all;
}

std::string_view
faultBehaviorName(FaultBehavior b)
{
    const auto index = static_cast<std::size_t>(b);
    GPR_ASSERT(index < kBehaviorNames.size(), "bad fault behavior");
    return kBehaviorNames[index];
}

bool
tryFaultBehaviorFromName(std::string_view name, FaultBehavior& out)
{
    for (std::size_t i = 0; i < kBehaviorNames.size(); ++i) {
        if (name == kBehaviorNames[i]) {
            out = static_cast<FaultBehavior>(i);
            return true;
        }
    }
    return false;
}

FaultBehavior
faultBehaviorFromName(std::string_view name)
{
    FaultBehavior out;
    if (tryFaultBehaviorFromName(name, out))
        return out;
    fatal("unknown fault behavior '", name,
          "'; known: ", joinNames(kBehaviorNames));
}

std::string_view
faultPatternName(FaultPattern p)
{
    const auto index = static_cast<std::size_t>(p);
    GPR_ASSERT(index < kPatternNames.size(), "bad fault pattern");
    return kPatternNames[index];
}

bool
tryFaultPatternFromName(std::string_view name, FaultPattern& out)
{
    for (std::size_t i = 0; i < kPatternNames.size(); ++i) {
        if (name == kPatternNames[i]) {
            out = static_cast<FaultPattern>(i);
            return true;
        }
    }
    return false;
}

FaultPattern
faultPatternFromName(std::string_view name)
{
    FaultPattern out;
    if (tryFaultPatternFromName(name, out))
        return out;
    fatal("unknown fault pattern '", name,
          "'; known: ", joinNames(kPatternNames));
}

} // namespace gpr
