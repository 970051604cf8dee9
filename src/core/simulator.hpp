/**
 * @file
 * The Simulator facade: wires N >= 1 cores — each a front-end, back-end
 * and private L1-I/L1-D/L2 slice — to one shared LLC and DRAM behind
 * the arbitrated MemoryController, and runs their traces to completion.
 * This is the primary public API of the library.
 */
#ifndef SIPRE_CORE_SIMULATOR_HPP
#define SIPRE_CORE_SIMULATOR_HPP

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/backend.hpp"
#include "core/config.hpp"
#include "core/metadata_preload.hpp"
#include "core/sim_result.hpp"
#include "frontend/frontend.hpp"
#include "memory/hierarchy.hpp"
#include "memory/memory_controller.hpp"
#include "trace/trace.hpp"

namespace sipre
{

/**
 * Per-core virtual-address stride for co-run traces: entry points call
 * `Trace::rebase(core_index * kCoreAddressStride)` so that distinct
 * processes occupy distinct address ranges instead of constructively
 * sharing LLC lines through the synthesized workloads' common layout.
 * Core 0 keeps offset 0, so a solo run and a co-run's core 0 are
 * directly comparable. The stride clears every cache/TLB index, and
 * the synthesized layout regions (code/global/heap/stack) sit at
 * distinct residues mod 2^45, so no two cores' images overlap for any
 * supported core count.
 */
inline constexpr Addr kCoreAddressStride = Addr{1} << 45;

/**
 * N cores co-running N traces over a shared LLC/DRAM; one core is the
 * common case.
 *
 * All cores share one SimConfig (homogeneous machines, heterogeneous
 * workloads); per-core AsmDB artifacts (rewritten traces, trigger maps,
 * metadata preloaders) are attached per core before run(). Traces must
 * outlive the simulator.
 *
 * Typical use:
 * @code
 *   Trace trace = synth::generateTrace(spec, 1'000'000);
 *   Simulator sim(SimConfig::industry(), trace);
 *   SimResult result = sim.run();
 * @endcode
 */
class Simulator
{
  public:
    Simulator(const SimConfig &config, std::vector<const Trace *> traces,
              const MemoryControllerConfig &controller = {});

    /** One core running `trace`. */
    Simulator(const SimConfig &config, const Trace &trace)
        : Simulator(config, std::vector<const Trace *>{&trace})
    {
    }

    // The components' callbacks hold `this` and the cores' addresses.
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Attach a no-overhead software-prefetch trigger map (AsmDB's
     * idealized mode) to one core. Must be called before run(). The
     * map must outlive the simulator.
     */
    void setSwPrefetchTriggers(std::size_t core,
                               const SwPrefetchTriggers *triggers);
    void
    setSwPrefetchTriggers(const SwPrefetchTriggers *triggers)
    {
        setSwPrefetchTriggers(0, triggers);
    }

    /**
     * Subscribe to core 0's L1-I demand misses (the AsmDB profiler's
     * hook). Fires with the missing line address.
     */
    void setL1iMissHook(std::function<void(Addr line_addr)> hook);

    /**
     * Attach a metadata preloader (paper Sec. VI) to one core: prefetch
     * metadata keyed by trigger line, preloaded from the LLC instead of
     * being carried by inserted instructions. Call before run().
     */
    void attachMetadataPreloader(
        std::size_t core, const MetadataPreloadConfig &config,
        std::unordered_map<Addr, std::vector<Addr>> metadata);
    void
    attachMetadataPreloader(
        const MetadataPreloadConfig &config,
        std::unordered_map<Addr, std::vector<Addr>> metadata)
    {
        attachMetadataPreloader(0, config, std::move(metadata));
    }

    /** Stats of core 0's preloader (null when none attached). */
    const MetadataPreloadStats *
    metadataStats() const
    {
        const auto &preloader = cores_[0]->preloader;
        return preloader ? &preloader->stats() : nullptr;
    }

    /**
     * Turn on windowed FTQ-scenario attribution on every core (off by
     * default): every simulated cycle's taxonomy class is bucketed into
     * `window`-cycle windows published as SimResult::scenario_timeline.
     * `window` of 0 turns it back off. Call before run(). Enabling it
     * never changes any other result field — the differential tests
     * depend on that.
     */
    void enableScenarioTimeline(std::uint32_t window);

    /**
     * Run every core's trace to retirement and collect results. With
     * one core the result has no core_results / shared_mem section;
     * with more, core_results holds each core's full SimResult,
     * shared_mem the contention view, and the top level the aggregate
     * (summed counters, slowest-core cycles, shared LLC, a "-cN" label).
     */
    SimResult run();

    /**
     * Earliest future cycle at which any component can make progress
     * (the fast-forward aggregation point; exposed for tests).
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Instrumentation hook: fired once per executed cycle, after all
     * components ticked. Skipped (fast-forwarded) cycles do not fire.
     */
    std::function<void(Cycle now)> onCycleEnd;

    /** Access to internals for tests and advanced instrumentation. */
    MemoryController &controller() { return *controller_; }
    MemoryHierarchy &memory(std::size_t core = 0)
    {
        return *cores_[core]->memory;
    }
    DecoupledFrontEnd &frontend(std::size_t core = 0)
    {
        return *cores_[core]->frontend;
    }
    Backend &backend(std::size_t core = 0) { return *cores_[core]->backend; }

    /**
     * Per-component wall-clock attribution of this simulator's run,
     * summed over its cores. Populated only while the process-wide
     * CycleProfiler is armed (sipre_cli --profile or SIPRE_PROFILE);
     * empty otherwise.
     */
    const ProfileAccumulator &profile() const { return profile_; }

  private:
    /** One core: private pipeline + L1/L2 slice + scheduler state. */
    struct Core
    {
        const Trace *trace = nullptr;
        std::unique_ptr<MemoryHierarchy> memory;
        std::unique_ptr<DecodeQueue> decode_queue;
        std::unique_ptr<DecoupledFrontEnd> frontend;
        std::unique_ptr<Backend> backend;
        std::unique_ptr<MetadataPreloader> preloader;
        /// Set when a back-end branch callback mutated front-end state
        /// this cycle; forces a front-end tick in the fast-forward loop.
        bool poked = false;
        std::uint64_t total = 0;  ///< instructions to retire
        std::uint64_t warmup = 0; ///< warmup retirement threshold
        bool warm = false;
        Cycle warmup_cycles = 0;
        bool finished = false;
        Cycle done_cycle = 0;
    };

    SimResult collectCore(const Core &core) const;
    /** Every core's workload name, joined by '+'. */
    std::string workloadName() const;

    SimConfig config_;
    std::unique_ptr<MemoryController> controller_;
    std::vector<std::unique_ptr<Core>> cores_;
    Cycle current_cycle_ = 0;
    ProfileAccumulator profile_;
};

} // namespace sipre

#endif // SIPRE_CORE_SIMULATOR_HPP
