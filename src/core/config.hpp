/**
 * @file
 * Whole-simulator configuration, including the paper's two front-end
 * presets: the conservative FDP (2-entry FTQ, as in prior software-
 * prefetching evaluations) and the industry-standard FDP (24-entry FTQ,
 * per Ishii et al. / Table I's Sunny-Cove-like core).
 */
#ifndef SIPRE_CORE_CONFIG_HPP
#define SIPRE_CORE_CONFIG_HPP

#include <string>

#include "backend/backend.hpp"
#include "frontend/frontend.hpp"
#include "memory/hierarchy.hpp"

namespace sipre
{

/** Most cores one Simulator runs (MemRequest::core is a byte). */
inline constexpr std::uint32_t kMaxCores = 8;

/** Complete configuration of one simulated core + memory system. */
struct SimConfig
{
    std::string label = "industry";
    FrontendConfig frontend;
    BackendConfig backend;
    HierarchyConfig memory;

    /**
     * Fraction of the trace used to warm caches, BTB, and predictors
     * before statistics collection begins (ChampSim-style warmup).
     */
    double warmup_fraction = 0.2;

    /**
     * Event-driven cycle skipping: when every component reports that it
     * cannot make progress before cycle T, jump the clock straight to T
     * instead of ticking the dead cycles one by one. Results are
     * bit-identical to the cycle-by-cycle reference loop (per-cycle
     * counters are accounted in bulk over the skipped span). Set to
     * false — or export SIPRE_NO_SKIP=1 — to force the reference loop
     * for debugging.
     */
    bool fast_forward = true;

    /**
     * The conservative front-end of prior software-prefetching work:
     * identical machine, but the FTQ holds only two basic blocks so
     * fetch can barely run ahead of decode.
     */
    static SimConfig
    conservative()
    {
        SimConfig config;
        config.label = "conservative-ftq2";
        config.frontend.ftq_entries = 2;
        return config;
    }

    /**
     * The industry-standard decoupled front-end (Table I): 24-entry FTQ
     * (192 32-bit instructions of run-ahead), GHR filtering, and
     * post-fetch correction.
     */
    static SimConfig
    industry()
    {
        SimConfig config;
        config.label = "industry-ftq24";
        config.frontend.ftq_entries = 24;
        return config;
    }

    /** Same machine with an arbitrary FTQ depth (for ablations). */
    static SimConfig
    withFtqDepth(std::uint32_t entries)
    {
        SimConfig config;
        config.label = "ftq" + std::to_string(entries);
        config.frontend.ftq_entries = entries;
        return config;
    }
};

} // namespace sipre

#endif // SIPRE_CORE_CONFIG_HPP
