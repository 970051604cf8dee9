#include "trace_obs/busy_profile.hpp"

#include <cstdio>

namespace sipre::trace_obs
{

const char *
busyComponentName(BusyComponent c)
{
    switch (c) {
      case BusyComponent::kFrontend:
        return "frontend";
      case BusyComponent::kBackend:
        return "backend";
      case BusyComponent::kL1i:
        return "l1i";
      case BusyComponent::kL1d:
        return "l1d";
      case BusyComponent::kL2:
        return "l2";
      case BusyComponent::kLlc:
        return "llc";
      case BusyComponent::kDram:
        return "dram";
      case BusyComponent::kPreloader:
        return "preloader";
      default:
        return "unknown";
    }
}

std::string
BusyProfile::table(std::uint64_t cycles) const
{
    const std::uint64_t total = totalNs();
    std::string out;
    char line[160];
    std::snprintf(line, sizeof(line), "%-10s %12s %12s %9s %7s",
                  "component", "total_ms", "ticks", "ns/tick", "share");
    out += line;
    if (cycles != 0) {
        std::snprintf(line, sizeof(line), " %9s", "ns/cycle");
        out += line;
    }
    out += '\n';
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const Slot &s = slots[i];
        if (s.ticks == 0)
            continue;
        const double ms = static_cast<double>(s.ns) / 1e6;
        const double per_tick =
            static_cast<double>(s.ns) / static_cast<double>(s.ticks);
        const double share =
            total != 0
                ? 100.0 * static_cast<double>(s.ns) /
                      static_cast<double>(total)
                : 0.0;
        std::snprintf(line, sizeof(line),
                      "%-10s %12.2f %12llu %9.1f %6.1f%%",
                      busyComponentName(static_cast<BusyComponent>(i)), ms,
                      static_cast<unsigned long long>(s.ticks), per_tick,
                      share);
        out += line;
        if (cycles != 0) {
            std::snprintf(line, sizeof(line), " %9.1f",
                          static_cast<double>(s.ns) /
                              static_cast<double>(cycles));
            out += line;
        }
        out += '\n';
    }
    return out;
}

} // namespace sipre::trace_obs
