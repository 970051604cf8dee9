/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload campaign|sweep|served --seed N --seconds S
 *             --trace 0|1 [--golden PATH] [--out-dir DIR]
 *             [--git-commit SHA] [--source-digest HEX]
 *   perfbench --write-golden PATH
 *
 * Prints a build/machine stamp, one line per metric (with its sample
 * count), and as the last line one JSON object with the keys correct,
 * attempted, failed and metrics. With --trace 0 the metrics are the
 * end-to-end ones; with --trace 1 the per-layer ones, and the spans are
 * written to <out-dir>/<workload>-seed<N>.trace.json. Exit status: 0 on
 * a correct run, 1 when any delivered result was wrong, failed or
 * refused, 2 on a usage or set-up error (no result line).
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>
#include <unistd.h>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload campaign|sweep|served "
                 "--seed N --seconds S --trace 0|1 [--golden PATH] "
                 "[--out-dir DIR] [--git-commit SHA] [--source-digest HEX]\n"
                 "       perfbench --write-golden PATH\n",
                 why.c_str());
    std::exit(2);
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
stampJson(const Options &o)
{
    std::ostringstream os;
    os << "{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"bench_threads\":" << benchThreads() << ",\"compiler\":\""
       << PERFBENCH_COMPILER << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
       << "\",\"git_commit\":\"" << o.git_commit << "\",\"source_digest\":\""
       << o.source_digest << "\",\"workload\":\"" << o.workload
       << "\",\"seed\":" << o.seed << ",\"seconds\":" << jsonNumber(o.seconds)
       << ",\"trace\":" << (o.trace ? 1 : 0) << "}";
    return os.str();
}

std::string
resultJson(const Report &report)
{
    std::ostringstream os;
    os << "{\"correct\":" << (report.correct() ? "true" : "false")
       << ",\"attempted\":" << report.counts.attempted()
       << ",\"failed\":" << report.counts.errors() << ",\"metrics\":{";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        os << (i == 0 ? "" : ",") << '"' << m.name << "\":{\"value\":"
           << jsonNumber(m.value) << ",\"unit\":\"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

/** (steal, total) jiffies of all CPUs from /proc/stat; zeros if unreadable. */
std::pair<double, double>
cpuSteal()
{
    std::ifstream is("/proc/stat");
    std::string cpu;
    double v = 0.0, total = 0.0, steal = 0.0;
    is >> cpu;
    for (int field = 0; field < 8 && (is >> v); ++field) {
        total += v;
        if (field == 7)
            steal = v;
    }
    return {steal, total};
}

int
writeGolden(const std::string &path)
{
    GoldenTable golden;
    const unsigned threads = benchThreads();
    goldenCampaign(golden, threads);
    goldenSweep(golden, threads);
    goldenServed(golden, threads);
    if (!golden.save(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 2;
    }
    std::printf("wrote %zu golden digests to %s\n", golden.size(),
                path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const double process_start = nowS();
    Options o;
    std::string golden_out;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = *end == '\0' && !value.empty();
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            have_seconds = *end == '\0' && o.seconds > 0.0;
        } else if (arg == "--trace") {
            have_trace = value == "0" || value == "1";
            o.trace = value == "1";
        } else if (arg == "--golden") {
            o.golden = value;
        } else if (arg == "--out-dir") {
            o.out_dir = value;
        } else if (arg == "--git-commit") {
            o.git_commit = value;
        } else if (arg == "--source-digest") {
            o.source_digest = value;
        } else if (arg == "--write-golden") {
            golden_out = value;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!golden_out.empty())
        return writeGolden(golden_out);
    if (o.workload != "campaign" && o.workload != "sweep" &&
        o.workload != "served")
        usage("--workload must be campaign, sweep or served");
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");

    Context ctx;
    ctx.options = o;
    ctx.process_start = process_start;
    ctx.scratch_dir = o.out_dir + "/tmp-" + std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::create_directories(ctx.scratch_dir, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                     ctx.scratch_dir.c_str(), ec.message().c_str());
        return 2;
    }

    const auto steal_start = cpuSteal();
    try {
        if (o.workload == "campaign")
            runCampaign(ctx);
        else if (o.workload == "sweep")
            runSweep(ctx);
        else
            runServed(ctx);
    } catch (const std::exception &e) {
        std::filesystem::remove_all(ctx.scratch_dir, ec);
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 2;
    }
    std::filesystem::remove_all(ctx.scratch_dir, ec);
    const auto steal_end = cpuSteal();

    Report &report = ctx.report;
    // Host time taken from this VM's CPUs while the run was measuring:
    // the main source of run-to-run spread on a shared machine.
    const double total = steal_end.second - steal_start.second;
    report.notes.push_back(
        "host_steal_pct " +
        std::to_string(total > 0.0 ? 100.0 *
                                         (steal_end.first - steal_start.first) /
                                         total
                                   : 0.0));
    if (report.counts.attempted() == 0)
        report.problem("no operation was attempted");
    const std::string stem = o.out_dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + "-trace" +
                             (o.trace ? "1" : "0");
    if (o.trace &&
        !SpanRecorder::instance().writeChromeTrace(stem + ".trace.json"))
        report.problem("cannot write " + stem + ".trace.json");

    const std::string stamp = stampJson(o);
    std::printf("stamp %s\n", stamp.c_str());
    for (const std::string &note : report.notes)
        std::printf("note %s\n", note.c_str());
    for (const Metric &m : report.metrics)
        std::printf("metric %-28s %16.6f %-9s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    std::printf("operations attempted %llu ok %llu refused %llu failed %llu "
                "wrong %llu error_rate %.6f\n",
                static_cast<unsigned long long>(report.counts.attempted()),
                static_cast<unsigned long long>(report.counts.ok),
                static_cast<unsigned long long>(report.counts.refused),
                static_cast<unsigned long long>(report.counts.failed),
                static_cast<unsigned long long>(report.counts.wrong),
                report.counts.errorRate());
    for (const std::string &p : report.problems)
        std::printf("problem %s\n", p.c_str());

    const std::string result = resultJson(report);
    std::ofstream(stem + ".json")
        << "{\"stamp\":" << stamp << ",\"result\":" << result << "}\n";
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return report.correct() && report.counts.errors() == 0 ? 0 : 1;
}
