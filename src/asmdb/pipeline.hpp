/**
 * @file
 * End-to-end AsmDB pipeline, mirroring the paper's methodology:
 * (1) execute and gather information (a profiling simulation),
 * (2) generate a profile (CFG + per-line miss counts),
 * (3) modify the target binary (trace rewriting with address shift),
 * (4) rerun the binary with software instruction prefetching.
 */
#ifndef SIPRE_ASMDB_PIPELINE_HPP
#define SIPRE_ASMDB_PIPELINE_HPP

#include <cstdint>
#include <unordered_map>

#include "asmdb/providers.hpp"
#include "asmdb/rewriter.hpp"
#include "core/config.hpp"
#include "core/sim_result.hpp"
#include "trace/trace.hpp"

namespace sipre::asmdb
{

/** Everything produced by one profile-and-plan pass. */
struct AsmdbArtifacts
{
    SimResult profile_run;       ///< baseline run used for profiling
    DistanceDecision decision;   ///< the distance provider's output
    AsmdbPlan plan;
    RewriteResult rewrite;       ///< rewritten trace + bloat numbers
    SwPrefetchTriggers triggers; ///< no-overhead mode trigger map
};

/** Stage 1's output: the baseline run and what its L1-I missed. */
struct BaselineProfile
{
    SimResult run; ///< the baseline simulation, unchanged by profiling
    std::unordered_map<Addr, std::uint64_t> line_misses; ///< per line
};

/**
 * Stage 1: simulate `trace` on the baseline `config` with the L1-I
 * demand-miss hook armed. The hook only observes, so `run` is
 * bit-identical to a plain `Simulator(config, trace).run()`; a caller
 * that needs both the base-mode result and a pipeline profiles once
 * and uses `run` as its base result.
 */
BaselineProfile profileBaseline(const Trace &trace, const SimConfig &config);

/**
 * Stages 2-4 on a profile already gathered by profileBaseline() for the
 * same trace and config: CFG build, distance decision, plan, rewrite.
 */
AsmdbArtifacts runPipeline(const Trace &trace, const SimConfig &config,
                           const BaselineProfile &profile,
                           const AsmdbParams &params = {});

/**
 * Run the full AsmDB pipeline for one workload trace under the given
 * baseline configuration (the profile is gathered on that baseline,
 * like profiling a production machine): profileBaseline() followed by
 * the overload above. Distances come from `params.distance_provider`:
 * `static` reproduces the pre-provider pipeline byte-for-byte,
 * `profile` consults `params.external_profile` (or this pass's own
 * profiling run), and `adaptive` runs three extra evaluation
 * simulations scored by Scenario-2 occupancy.
 */
AsmdbArtifacts runPipeline(const Trace &trace, const SimConfig &config,
                           const AsmdbParams &params = {});

} // namespace sipre::asmdb

#endif // SIPRE_ASMDB_PIPELINE_HPP
