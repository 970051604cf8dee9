#include "asmdb/pipeline.hpp"

#include "core/simulator.hpp"

namespace sipre::asmdb
{

BaselineProfile
profileBaseline(const Trace &trace, const SimConfig &config)
{
    // (1) Profile: run the baseline and collect per-line L1-I misses.
    BaselineProfile profile;
    Simulator sim(config, trace);
    sim.setL1iMissHook(
        [&profile](Addr line) { ++profile.line_misses[line]; });
    profile.run = sim.run();
    return profile;
}

AsmdbArtifacts
runPipeline(const Trace &trace, const SimConfig &config,
            const AsmdbParams &params)
{
    return runPipeline(trace, config, profileBaseline(trace, config),
                       params);
}

AsmdbArtifacts
runPipeline(const Trace &trace, const SimConfig &config,
            const BaselineProfile &profile, const AsmdbParams &params)
{
    AsmdbArtifacts artifacts;
    artifacts.profile_run = profile.run;
    const auto &line_misses = profile.line_misses;

    // (2) Reconstruct the CFG with profile weights.
    const Cfg cfg = Cfg::build(trace, line_misses);

    // (3) Decide distances, plan insertions, and rewrite the "binary"
    // (trace). The adaptive provider's evaluation runs use no-overhead
    // triggers so candidate plans leave line addresses comparable with
    // the profile, and score on the scenario timeline's Scenario-2
    // occupancy.
    const Cycle miss_latency = config.memory.l1i.latency +
                               config.memory.l2.latency +
                               config.memory.llc.latency;
    ProviderEvaluator evaluator;
    if (params.distance_provider == DistanceProviderKind::kAdaptive) {
        evaluator = [&trace, &config](const AsmdbPlan &plan) {
            ProviderEvalResult eval;
            const SwPrefetchTriggers triggers = buildTriggers(plan);
            Simulator sim(config, trace);
            sim.setSwPrefetchTriggers(&triggers);
            sim.setL1iMissHook([&eval](Addr line) {
                ++eval.line_misses[line];
            });
            sim.enableScenarioTimeline(4096);
            const SimResult result = sim.run();
            for (const ScenarioWindow &w :
                 result.scenario_timeline.windows) {
                eval.scenario2_cycles += w.cycles[static_cast<
                    std::size_t>(FtqScenario::kStallingHead)];
            }
            return eval;
        };
    }
    const auto provider = makeDistanceProvider(params.distance_provider,
                                               std::move(evaluator));
    artifacts.decision = provider->decide(
        ProviderInputs{cfg, line_misses, artifacts.profile_run,
                       params.external_profile, miss_latency},
        params);
    artifacts.plan =
        buildPlan(cfg, line_misses, artifacts.decision, params);
    const CodeLayout layout(artifacts.plan);
    artifacts.rewrite = rewriteTrace(trace, artifacts.plan, layout);
    artifacts.triggers = buildTriggers(artifacts.plan);
    return artifacts;
}

} // namespace sipre::asmdb
