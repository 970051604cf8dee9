/**
 * @file
 * sipre command-line driver: run any workload under any configuration
 * and print the full characterization report. The scripting-friendly
 * entry point for one-off experiments.
 *
 * Usage:
 *   sipre_cli [--workload NAME] [--ftq N] [--instructions N]
 *             [--mode base|asmdb|noovh|metadata|feedback]
 *             [--predictor perceptron|tage|gshare|bimodal|local]
 *             [--hw-prefetcher none|nextline|eip]
 *             [--distance-provider static|profile|adaptive]
 *             [--profile-in PATH] [--result-out PATH]
 *             [--cores N] [--mix A,B,...]
 *             [--no-pfc] [--no-ghr-filter] [--no-wrong-path] [--json]
 *             [--save-trace PATH] [--load-trace PATH] [--list]
 *             [--trace-out PATH] [--scenario-window N] [--profile]
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/json_io.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "core/trace_export.hpp"
#include "service/engine.hpp"
#include "service/request.hpp"
#include "trace/champsim_import.hpp"
#include "trace/synth/workload.hpp"
#include "trace_obs/chrome_trace.hpp"
#include "trace_obs/recorder.hpp"

using namespace sipre;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --list                     list the 48 workloads and exit\n"
        "  --workload NAME            workload to run (default "
        "secret_srv12)\n"
        "  --ftq N                    FTQ depth (default 24)\n"
        "  --instructions N           trace length (default 2000000)\n"
        "  --mode MODE                %s\n"
        "  --predictor KIND           %s\n"
        "  --hw-prefetcher KIND       %s\n"
        "  --distance-provider KIND   where the AsmDB planner's prefetch\n"
        "                             distances come from (%s;\n"
        "                             default static)\n"
        "  --profile-in PATH          prior-run result (campaign text, as\n"
        "                             written by --result-out) feeding the\n"
        "                             'profile' distance provider\n"
        "  --result-out PATH          write the run's full result in the\n"
        "                             lossless campaign-text format (the\n"
        "                             profile half of the two-pass\n"
        "                             profile->instrument flow)\n"
        "  --cores N                  run N copies of the workload on N\n"
        "                             cores over a shared LLC/DRAM\n"
        "  --mix A,B,...              heterogeneous co-run: one core per\n"
        "                             named workload (implies --cores)\n"
        "  --no-pfc                   disable post-fetch correction\n"
        "  --no-ghr-filter            disable the GHR BTB-miss filter\n"
        "  --no-wrong-path            disable wrong-path shadow fetch\n"
        "  --json                     print the machine-readable JSON\n"
        "                             SimResult (same schema as the\n"
        "                             simulation service) instead of the\n"
        "                             report\n"
        "  --save-trace PATH          write the generated trace and exit\n"
        "  --load-trace PATH          run a previously saved trace\n"
        "  --load-champsim PATH       run a raw ChampSim-format trace\n"
        "  --trace-out PATH           write a Chrome trace-event JSON of\n"
        "                             the run (spans + per-window FTQ\n"
        "                             scenario tracks) to PATH; load it\n"
        "                             at ui.perfetto.dev. Implies\n"
        "                             --scenario-window 4096 unless set\n"
        "  --scenario-window N        record the FTQ scenario timeline\n"
        "                             with N-cycle windows (0 = off)\n"
        "  --profile                  attribute the run's wall-clock to\n"
        "                             per-component ticks (front-end,\n"
        "                             back-end, each cache level, DRAM)\n"
        "                             and print one table per core (and\n"
        "                             the shared LLC/DRAM) to stderr;\n"
        "                             with --trace-out, also as counter\n"
        "                             tracks\n",
        argv0, kSimModeChoices, kPredictorChoices, kHwPrefetcherChoices,
        kDistanceProviderChoices);
    std::exit(1);
}

/** Structured invalid-argument diagnostic: message + exit code 2. */
int
badValue(const char *flag, const std::string &value,
         const std::string &choices)
{
    std::fprintf(stderr,
                 "sipre_cli: error: invalid %s '%s' (expected %s)\n",
                 flag, value.c_str(), choices.c_str());
    return 2;
}

/**
 * A number flag's value, which must lie in [lo, hi] (for the request
 * knobs: the service's bounds); anything else is an exit-2 diagnostic.
 */
std::uint64_t
numberIn(const char *flag, const std::string &value, std::uint64_t lo,
         std::uint64_t hi)
{
    const auto n = parseUnsigned(value, hi);
    if (!n || *n < lo)
        std::exit(badValue(flag, value,
                           "an integer in [" + std::to_string(lo) + ", " +
                               std::to_string(hi) + "]"));
    return *n;
}

/**
 * Persist a run's result in the lossless campaign-text format, the
 * profile half of the two-pass profile->instrument flow (the file is
 * what --profile-in reads back).
 */
bool
writeResultFile(const std::string &path, const SimResult &result)
{
    std::ofstream out(path, std::ios::trunc);
    if (out)
        writeSimResultText(out, result);
    if (!out) {
        std::fprintf(stderr,
                     "sipre_cli: error: cannot write result to %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

/** One busy-profile table of a --profile run. */
struct BusyView
{
    std::string label;
    std::uint64_t cycles = 0;
    trace_obs::BusyProfile profile;
};

/**
 * The run's busy profiles as printed and traced. A one-core run folds
 * the shared LLC/DRAM into its one table; a co-run keeps one per core
 * plus one for the shared memory system. Empty unless profiled.
 */
std::vector<BusyView>
busyViews(const service::RunRecord &record, const SimResult &result)
{
    std::vector<BusyView> views;
    if (record.core_busy.size() == 1) {
        views.push_back({result.workload, result.cycles,
                         record.core_busy.front()});
        views.back().profile += record.shared_busy;
        return views;
    }
    for (std::size_t i = 0; i < record.core_busy.size(); ++i) {
        const SimResult &core = result.core_results[i];
        views.push_back({"core " + std::to_string(i) + " " + core.workload,
                         core.cycles, record.core_busy[i]});
    }
    if (!views.empty())
        views.push_back({"shared LLC/DRAM", result.cycles,
                         record.shared_busy});
    return views;
}

/**
 * Write the run's Chrome trace-event JSON: the recorded spans plus one
 * FTQ scenario counter track per recorded timeline (one per core on a
 * co-run) and one track per busy profile.
 */
bool
writeTraceFile(const std::string &path, const SimResult &result,
               const std::vector<BusyView> &busy)
{
    std::vector<trace_obs::CounterSeries> series;
    if (result.scenario_timeline.enabled())
        series.push_back(scenarioCounterSeries(
            result.scenario_timeline, "ftq scenarios: " + result.workload +
                                          "/" + result.config_label));
    for (std::size_t i = 0; i < result.core_results.size(); ++i) {
        const SimResult &core = result.core_results[i];
        if (core.scenario_timeline.enabled())
            series.push_back(scenarioCounterSeries(
                core.scenario_timeline,
                "ftq scenarios: core " + std::to_string(i) + " " +
                    core.workload + "/" + core.config_label));
    }
    // The busy profiles are run totals: they sit under the measured
    // run's sim.run span, the last to end (AsmDB's sims run first).
    std::uint64_t run_start = 0, run_end = 0;
    trace_obs::Recorder::global().forEachEvent(
        [&](const trace_obs::TraceEvent &event, std::uint32_t) {
            if (std::string_view(event.name) == "sim.run" &&
                event.ts_ns + event.dur_ns >= run_end) {
                run_start = event.ts_ns;
                run_end = event.ts_ns + event.dur_ns;
            }
        });
    for (const BusyView &view : busy)
        series.push_back(busyCounterSeries(view.profile,
                                           "busy ns: " + view.label,
                                           run_start, run_end));
    const std::string doc = trace_obs::buildChromeTrace(
        trace_obs::Recorder::global(), /*job_filter=*/0, series,
        "sipre_cli");
    std::ofstream out(path, std::ios::trunc);
    out << doc << '\n';
    if (!out) {
        std::fprintf(stderr, "error: cannot write trace to %s\n",
                     path.c_str());
        return false;
    }
    std::fprintf(stderr, "[sipre_cli] wrote trace to %s\n", path.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    service::SimRequest request;
    std::string save_path, load_path, champsim_path;
    std::string trace_out;
    std::string profile_in, result_out;
    std::uint32_t scenario_window = 0;
    bool scenario_window_set = false;
    bool json = false;
    bool profile = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--list") {
            for (const auto &spec : synth::cvp1LikeSuite())
                std::printf("%s\n", spec.name.c_str());
            return 0;
        } else if (arg == "--workload") {
            request.workload = next();
        } else if (arg == "--ftq") {
            request.ftq_entries = static_cast<std::uint32_t>(
                numberIn("--ftq", next(), service::kMinFtqEntries,
                         service::kMaxFtqEntries));
        } else if (arg == "--instructions") {
            request.instructions =
                numberIn("--instructions", next(), service::kMinInstructions,
                         service::kMaxInstructions);
        } else if (arg == "--mode") {
            const std::string name = next();
            const auto mode = parseSimMode(name);
            if (!mode)
                return badValue("--mode", name, kSimModeChoices);
            request.mode = *mode;
        } else if (arg == "--predictor") {
            const std::string kind = next();
            const auto predictor = parsePredictor(kind);
            if (!predictor)
                return badValue("--predictor", kind, kPredictorChoices);
            request.predictor = *predictor;
        } else if (arg == "--hw-prefetcher") {
            const std::string kind = next();
            const auto prefetcher = parseHwPrefetcher(kind);
            if (!prefetcher)
                return badValue("--hw-prefetcher", kind,
                                kHwPrefetcherChoices);
            request.hw_prefetcher = *prefetcher;
        } else if (arg == "--distance-provider") {
            const std::string kind = next();
            const auto provider = parseDistanceProvider(kind);
            if (!provider)
                return badValue("--distance-provider", kind,
                                kDistanceProviderChoices);
            request.distance_provider = *provider;
        } else if (arg == "--profile-in") {
            profile_in = next();
        } else if (arg == "--result-out") {
            result_out = next();
        } else if (arg == "--cores") {
            request.cores = static_cast<std::uint32_t>(
                numberIn("--cores", next(), 1, service::kMaxCores));
        } else if (arg == "--mix") {
            const std::string value = next();
            request.mix.clear();
            std::size_t start = 0;
            while (start <= value.size()) {
                const std::size_t comma = value.find(',', start);
                const std::size_t end =
                    comma == std::string::npos ? value.size() : comma;
                if (end > start)
                    request.mix.push_back(value.substr(start, end - start));
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
            if (request.mix.empty() ||
                request.mix.size() > service::kMaxCores)
                return badValue("--mix", value,
                                "a comma-separated list of 1 to " +
                                    std::to_string(service::kMaxCores) +
                                    " workloads");
        } else if (arg == "--no-pfc") {
            request.pfc = false;
        } else if (arg == "--no-ghr-filter") {
            request.ghr_filter = false;
        } else if (arg == "--no-wrong-path") {
            request.wrong_path = false;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--save-trace") {
            save_path = next();
        } else if (arg == "--load-trace") {
            load_path = next();
        } else if (arg == "--load-champsim") {
            champsim_path = next();
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--profile") {
            profile = true;
        } else if (arg == "--scenario-window") {
            scenario_window = static_cast<std::uint32_t>(
                numberIn("--scenario-window", next(), 0, ~std::uint32_t{0}));
            scenario_window_set = true;
        } else {
            usage(argv[0]);
        }
    }

    // --mix is the heterogeneous spelling of --cores: a single-entry
    // mix is just a workload, and an explicit --cores must agree with
    // the mix length.
    if (!request.mix.empty()) {
        if (request.cores != 1 && request.cores != request.mix.size()) {
            std::fprintf(stderr,
                         "sipre_cli: error: --cores %u contradicts the "
                         "%zu-entry --mix\n",
                         request.cores, request.mix.size());
            return 2;
        }
        request.cores = static_cast<std::uint32_t>(request.mix.size());
        request.workload = request.mix.front();
    }
    const bool multicore = request.cores > 1;
    if (multicore &&
        (!save_path.empty() || !load_path.empty() ||
         !champsim_path.empty())) {
        std::fprintf(stderr,
                     "sipre_cli: error: --cores/--mix only run the "
                     "synthesized workloads (no trace files)\n");
        return 2;
    }

    // A prior run's serialized result (the campaign-text form written
    // by --result-out) feeds the 'profile' provider's distance model,
    // so it must name that provider and a mode that runs AsmDB.
    SimResult external_profile;
    service::RunInputs inputs;
    if (!profile_in.empty()) {
        std::ifstream in(profile_in);
        if (!in || !readSimResultText(in, external_profile)) {
            std::fprintf(stderr,
                         "sipre_cli: error: cannot read profile %s\n",
                         profile_in.c_str());
            return 1;
        }
        if (request.distance_provider != DistanceProviderKind::kProfile ||
            request.mode == SimMode::kBase) {
            std::fprintf(stderr,
                         "sipre_cli: error: --profile-in feeds the "
                         "'profile' distance provider of an AsmDB mode; "
                         "add --distance-provider profile and a --mode "
                         "other than base\n");
            return 2;
        }
        inputs.profile = &external_profile;
    }
    if (request.mode == SimMode::kBase &&
        request.distance_provider != DistanceProviderKind::kStatic) {
        std::fprintf(stderr,
                     "sipre_cli: error: --distance-provider steers the "
                     "AsmDB pipeline; --mode base runs none\n");
        return 2;
    }

    // --trace-out without an explicit window still gets a scenario
    // timeline: a trace with no counter tracks is rarely what was meant.
    if (!trace_out.empty() && !scenario_window_set)
        scenario_window = 4096;
    inputs.scenario_window = scenario_window;
    if (!trace_out.empty())
        trace_obs::Recorder::global().enable();
    inputs.busy_profile = profile;

    // A trace from a file (or one synthesized only to be saved).
    Trace trace;
    if (!champsim_path.empty()) {
        if (!importChampsimFile(champsim_path, trace, request.instructions)) {
            std::fprintf(stderr, "error: cannot import %s\n",
                         champsim_path.c_str());
            return 1;
        }
        inputs.trace = &trace;
    } else if (!load_path.empty()) {
        if (!trace.load(load_path)) {
            std::fprintf(stderr, "error: cannot load trace %s\n",
                         load_path.c_str());
            return 1;
        }
        inputs.trace = &trace;
    } else if (!save_path.empty()) {
        const auto spec = synth::findWorkload(request.workload);
        if (!spec) {
            std::fprintf(stderr,
                         "error: unknown workload %s (try --list)\n",
                         request.workload.c_str());
            return 1;
        }
        trace = synth::generateTrace(*spec, request.instructions);
    }
    if (!save_path.empty()) {
        if (!trace.save(save_path)) {
            std::fprintf(stderr, "error: cannot save trace to %s\n",
                         save_path.c_str());
            return 1;
        }
        std::printf("saved %zu instructions to %s\n", trace.size(),
                    save_path.c_str());
        return 0;
    }

    service::RunRecord record;
    SimResult result;
    try {
        result = service::runSimRequest(request, inputs, &record);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sipre_cli: error: %s\n", e.what());
        return 1;
    }

    // With --json the only stdout output is the result document, so
    // scripts can pipe it straight into a JSON parser.
    if (json) {
        std::printf("%s\n", simResultToJson(result).c_str());
    } else {
        if (!record.insertions_per_round.empty()) {
            std::printf("feedback-directed: insertions per round:");
            for (const auto n : record.insertions_per_round)
                std::printf(" %zu", n);
            std::printf(" (dropped %llu)\n\n",
                        static_cast<unsigned long long>(
                            record.dropped_insertions));
        } else if (record.pipeline_ran && !multicore) {
            std::printf("AsmDB plan: %llu insertions, static bloat "
                        "%.1f%%, dynamic bloat %.1f%%\n\n",
                        static_cast<unsigned long long>(record.insertions),
                        100.0 * record.static_bloat,
                        100.0 * record.dynamic_bloat);
        }
        printReport(result, std::cout);
        if (record.metadata) {
            std::printf(
                "\nmetadata preloader: %llu lookups, %llu L1 hits, %llu "
                "fills, %llu prefetches\n",
                static_cast<unsigned long long>(record.metadata->lookups),
                static_cast<unsigned long long>(record.metadata->l1_hits),
                static_cast<unsigned long long>(
                    record.metadata->metadata_fills),
                static_cast<unsigned long long>(
                    record.metadata->prefetches_issued));
        }
    }
    // The tables go to stderr so --json keeps stdout machine-readable.
    const std::vector<BusyView> busy = busyViews(record, result);
    for (const BusyView &view : busy) {
        std::fprintf(stderr,
                     "[sipre_cli] busy-cycle profile (%s, %llu cycles):\n%s",
                     view.label.c_str(),
                     static_cast<unsigned long long>(view.cycles),
                     view.profile.table(view.cycles).c_str());
    }

    if (!result_out.empty() && !writeResultFile(result_out, result))
        return 1;
    if (!trace_out.empty() && !writeTraceFile(trace_out, result, busy))
        return 1;
    return 0;
}
