/**
 * @file
 * Per-component busy-time profiling: attributes a simulation's
 * wall-clock time to the component ticks that consume it (front-end =
 * FTQ/fetch/branch, back-end = decode/issue/retire, each cache level,
 * DRAM, the metadata preloader).
 *
 * Design contract (mirrors recorder.hpp):
 *  - Armed per run, never process-wide: Simulator::enableBusyProfile()
 *    hands each core (and the shared LLC/DRAM) its own BusyProfile, so
 *    concurrent shards never contend and an unarmed run pays one null
 *    pointer check per BusyScope — no clock read, no atomic load.
 *    bench/bench_hook_overhead puts a number on it.
 *  - Scopes are per-component-per-cycle, not per-event: the profile
 *    answers "where do busy cycles go" (EXPERIMENTS.md); a `--trace-out`
 *    file carries each profile as a counter track beside the sim.run
 *    span (core/trace_export.hpp).
 */
#ifndef SIPRE_TRACE_OBS_BUSY_PROFILE_HPP
#define SIPRE_TRACE_OBS_BUSY_PROFILE_HPP

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace sipre::trace_obs
{

/** The components wall-clock time is attributed to. */
enum class BusyComponent : std::uint8_t {
    kFrontend = 0, ///< FTQ allocate/issue/deliver + branch prediction
    kBackend,      ///< decode/dispatch, scheduler issue, retire
    kL1i,
    kL1d,
    kL2,
    kLlc,
    kDram,
    kPreloader,
    kCount
};

/** Stable short name for reports ("frontend", "l1i", ...). */
const char *busyComponentName(BusyComponent c);

/** One run's accumulation: total ns and tick count per component. */
struct BusyProfile
{
    struct Slot
    {
        std::uint64_t ns = 0;
        std::uint64_t ticks = 0;
    };
    std::array<Slot, static_cast<std::size_t>(BusyComponent::kCount)> slots;

    const Slot &
    operator[](BusyComponent c) const
    {
        return slots[static_cast<std::size_t>(c)];
    }

    BusyProfile &
    operator+=(const BusyProfile &other)
    {
        for (std::size_t i = 0; i < slots.size(); ++i) {
            slots[i].ns += other.slots[i].ns;
            slots[i].ticks += other.slots[i].ticks;
        }
        return *this;
    }

    std::uint64_t
    totalNs() const
    {
        std::uint64_t total = 0;
        for (const Slot &s : slots)
            total += s.ns;
        return total;
    }

    /**
     * Human-readable table: one line per component with total ms, tick
     * count, ns/tick, and share of the profiled total. `cycles`, when
     * non-zero, adds an ns/cycle column (the EXPERIMENTS.md metric).
     */
    std::string table(std::uint64_t cycles = 0) const;
};

/**
 * RAII scope attributing the enclosed wall-clock to one component of
 * one profile. Inert (no clock read) when the profile is null.
 */
class BusyScope
{
  public:
    BusyScope(BusyProfile *profile, BusyComponent c)
    {
        if (profile != nullptr) {
            slot_ = &profile->slots[static_cast<std::size_t>(c)];
            start_ = std::chrono::steady_clock::now();
        }
    }

    ~BusyScope()
    {
        if (slot_ != nullptr) {
            slot_->ns += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count());
            ++slot_->ticks;
        }
    }

    BusyScope(const BusyScope &) = delete;
    BusyScope &operator=(const BusyScope &) = delete;

  private:
    BusyProfile::Slot *slot_ = nullptr;
    std::chrono::steady_clock::time_point start_;
};

} // namespace sipre::trace_obs

#endif // SIPRE_TRACE_OBS_BUSY_PROFILE_HPP
