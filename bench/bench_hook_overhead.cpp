/**
 * @file
 * Measures what the armable hooks cost. They share one contract: a
 * disabled hook costs nanoseconds — no clock read, no allocation — so
 * it can sit on a hot path, and an armed one costs a bounded, reported
 * fraction of wall clock. Each hook is timed disabled and armed:
 *
 *  - fault::at(): one relaxed atomic load disabled; armed with a rule
 *    that never fires, the mutex-guarded decide() bookkeeping.
 *  - trace_obs::Span: one relaxed atomic load disabled.
 *  - trace_obs::BusyScope: one null check disabled, two steady_clock
 *    reads armed. It sits in the per-cycle simulation loop, so work
 *    sneaking into its disabled path taxes every simulated cycle.
 *
 * Then two whole-simulation overheads against an unhooked run of the
 * same trace: traced (recorder armed + 4096-cycle scenario windows)
 * and profiled (Simulator::enableBusyProfile).
 *
 * Output: one machine-readable JSON line on stdout.
 * Honors SIPRE_INSTRUCTIONS (default 2,000,000) for the sim runs.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "core/simulator.hpp"
#include "trace/synth/workload.hpp"
#include "trace_obs/busy_profile.hpp"
#include "trace_obs/recorder.hpp"
#include "util/fault.hpp"

namespace
{

using namespace sipre;

constexpr std::uint64_t kDisabledOps = 100'000'000;
constexpr std::uint64_t kArmedOps = 5'000'000;

/** ns per `op()` call over `ops` iterations. */
template <typename Op>
double
nsPerOp(std::uint64_t ops, Op &&op)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i)
        op();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(ops);
}

enum class Hooks { kNone, kTraced, kProfiled };

/** Wall-clock seconds for one full simulation of `trace`. */
double
timeRun(const SimConfig &config, const Trace &trace, Hooks hooks,
        std::uint64_t &cycles_out)
{
    trace_obs::Recorder &recorder = trace_obs::Recorder::global();
    Simulator sim(config, trace);
    if (hooks == Hooks::kTraced) {
        sim.enableScenarioTimeline(4096);
        recorder.enable();
    } else if (hooks == Hooks::kProfiled) {
        sim.enableBusyProfile();
    }
    const auto t0 = std::chrono::steady_clock::now();
    const SimResult result = sim.run();
    const auto t1 = std::chrono::steady_clock::now();
    recorder.disable();
    recorder.clear();
    cycles_out = result.cycles;
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main()
{
    // fault::at(): `fired` stays observable so the loop cannot be
    // folded away; armed, the rule sits on a site the loop never
    // consults, so it must end up zero.
    fault::Injector &injector = fault::Injector::global();
    std::uint64_t fired = 0;
    const auto fault_op = [&] {
        if (fault::at(fault::Site::kRecv))
            ++fired;
    };
    injector.configure("");
    const double fault_off = nsPerOp(kDisabledOps, fault_op);
    injector.configure("fsync:fail=after:1000000000000");
    const double fault_on = nsPerOp(kArmedOps, fault_op);
    injector.configure("");
    if (fired != 0)
        std::fprintf(stderr, "unexpected injections: %llu\n",
                     static_cast<unsigned long long>(fired));

    trace_obs::Recorder &recorder = trace_obs::Recorder::global();
    const auto span_op = [] { trace_obs::Span span("bench.span", "bench"); };
    recorder.disable();
    const double span_off = nsPerOp(kDisabledOps, span_op);
    recorder.enable();
    const double span_on = nsPerOp(kArmedOps, span_op);
    recorder.disable();
    recorder.clear();

    // Read through a volatile, as the simulator reads a core's profile
    // pointer, so a null target is not folded away at compile time.
    trace_obs::BusyProfile profile;
    trace_obs::BusyProfile *volatile target = nullptr;
    const auto scope_op = [&] {
        trace_obs::BusyScope scope(target,
                                   trace_obs::BusyComponent::kFrontend);
    };
    const double scope_off = nsPerOp(kDisabledOps, scope_op);
    target = &profile;
    const double scope_on = nsPerOp(kArmedOps, scope_op);

    const auto spec = synth::findWorkload("secret_srv12");
    if (!spec) {
        std::fprintf(stderr, "missing bench workload\n");
        return 1;
    }
    std::size_t instructions = 2'000'000;
    if (const char *env = std::getenv("SIPRE_INSTRUCTIONS"))
        instructions = static_cast<std::size_t>(std::atoll(env));
    const Trace trace = synth::generateTrace(*spec, instructions);
    const SimConfig config = SimConfig::industry();

    // Warm once so first-touch allocation noise lands outside the timed
    // runs, then best-of-3 per variant, interleaved: min is the
    // noise-robust estimator, since scheduler and frequency jitter only
    // ever add time.
    std::uint64_t cycles = 0;
    (void)timeRun(config, trace, Hooks::kNone, cycles);
    double baseline_s = 1e300, traced_s = 1e300, profiled_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        baseline_s =
            std::min(baseline_s, timeRun(config, trace, Hooks::kNone, cycles));
        traced_s =
            std::min(traced_s, timeRun(config, trace, Hooks::kTraced, cycles));
        profiled_s = std::min(profiled_s,
                              timeRun(config, trace, Hooks::kProfiled, cycles));
    }
    const auto overhead = [&](double s) {
        return baseline_s > 0.0 ? 100.0 * (s - baseline_s) / baseline_s : 0.0;
    };

    std::printf(
        "{\"bench\":\"hook_overhead\",\"disabled_ops\":%llu,"
        "\"armed_ops\":%llu,\"fault_disabled_ns\":%.3f,"
        "\"fault_armed_ns\":%.3f,\"span_disabled_ns\":%.3f,"
        "\"span_armed_ns\":%.3f,\"busy_scope_disabled_ns\":%.3f,"
        "\"busy_scope_armed_ns\":%.3f,\"sim_cycles\":%llu,"
        "\"baseline_seconds\":%.4f,\"traced_seconds\":%.4f,"
        "\"traced_overhead_pct\":%.2f,\"profiled_seconds\":%.4f,"
        "\"profiled_overhead_pct\":%.2f}\n",
        static_cast<unsigned long long>(kDisabledOps),
        static_cast<unsigned long long>(kArmedOps), fault_off, fault_on,
        span_off, span_on, scope_off, scope_on,
        static_cast<unsigned long long>(cycles), baseline_s, traced_s,
        overhead(traced_s), profiled_s, overhead(profiled_s));
    return 0;
}
