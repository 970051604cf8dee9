#include "core/experiment.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "asmdb/pipeline.hpp"
#include "core/simulator.hpp"
#include "trace/synth/workload.hpp"
#include "util/logging.hpp"

namespace sipre
{

namespace
{

/**
 * Parse a size from the environment. Only fully numeric values are
 * accepted; anything else (including trailing junk like "100k") keeps
 * the fallback and warns on stderr, so a typo degrades loudly instead
 * of silently running a different experiment.
 */
std::size_t
envSize(const char *name, std::size_t fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    for (const char *p = value; *p != '\0'; ++p) {
        if (!std::isdigit(static_cast<unsigned char>(*p))) {
            std::cerr << "[sipre] ignoring " << name << "='" << value
                      << "': not a non-negative integer, using "
                      << fallback << "\n";
            return fallback;
        }
    }
    return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

// ------------------------------------------------------------ serializer

/** A counter, or a name (always a whitespace-free token). */
template <typename Scalar>
void
writeField(std::ostream &os, const Scalar &v)
{
    os << v;
}

void
writeField(std::ostream &os, const RunningStat &s)
{
    os << s.count() << ' ' << s.sum() << ' ' << s.min() << ' ' << s.max();
}

void
writeField(std::ostream &os, const Histogram &h)
{
    os << h.sum();
    for (std::size_t i = 0; i <= h.buckets(); ++i)
        os << ' ' << h.count(i);
}

template <typename Scalar>
void
readField(std::istream &is, Scalar &v)
{
    is >> v;
}

void
readField(std::istream &is, RunningStat &s)
{
    std::uint64_t count = 0;
    double sum = 0.0, min = 0.0, max = 0.0;
    is >> count >> sum >> min >> max;
    if (is)
        s.restore(count, sum, min, max);
}

void
readField(std::istream &is, Histogram &h)
{
    std::uint64_t sum = 0;
    is >> sum;
    std::vector<std::uint64_t> counts(h.buckets() + 1, 0);
    for (auto &c : counts)
        is >> c;
    if (is)
        h.restore(counts, sum);
}

/** Every listed member of each struct, each preceded by a space. */
template <typename... Stats>
void
writeFields(std::ostream &os, const Stats &...s)
{
    const auto write = [&os](const char *, const auto &v) {
        os << ' ';
        writeField(os, v);
    };
    (forEachField(write, s), ...);
}

template <typename... Stats>
void
readFields(std::istream &is, Stats &...s)
{
    const auto read = [&is](const char *, auto &v) { readField(is, v); };
    (forEachField(read, s), ...);
}

void
writeResultBody(std::ostream &os, const SimResult &r)
{
    // Both labels are single whitespace-free tokens by construction.
    os << r.workload << ' ' << r.config_label << ' ' << r.instructions
       << ' ' << r.effective_instructions << ' ' << r.cycles;
    writeFields(os, r.frontend, r.backend, r.branch, r.btb, r.l1i, r.l1d,
                r.l2, r.llc);
    // Scenario timeline (v5): tagged section so a garbled record fails
    // loudly instead of shifting every following field.
    os << " tl " << r.scenario_timeline.window_size << ' '
       << r.scenario_timeline.windows.size();
    for (const ScenarioWindow &w : r.scenario_timeline.windows) {
        os << ' ' << w.start_cycle;
        for (const std::uint64_t c : w.cycles)
            os << ' ' << c;
    }
    // Hardware-prefetcher counters: written only when a component ran,
    // so every record produced before this section existed — and every
    // iprefetcher=none record after it — is byte-identical and the
    // cache version needn't change.
    if (!r.hwpf.empty()) {
        os << " hwpf " << r.hwpf.size();
        for (const HwPrefetchCounters &c : r.hwpf)
            writeFields(os, c);
    }
}

void
writeU64Vector(std::ostream &os, const std::vector<std::uint64_t> &v)
{
    os << ' ' << v.size();
    for (const std::uint64_t x : v)
        os << ' ' << x;
}

/**
 * Full record (v6): the single-core body plus a tagged "mc" section
 * with the per-core results and the shared LLC/DRAM contention view.
 * Single-core results write "mc 0" so every record has the same shape.
 */
void
writeResult(std::ostream &os, const SimResult &r)
{
    writeResultBody(os, r);
    os << " mc " << r.core_results.size();
    if (!r.core_results.empty()) {
        writeFields(os, r.shared_mem.llc, r.shared_mem.dram);
        writeU64Vector(os, r.shared_mem.llc_core_hits);
        writeU64Vector(os, r.shared_mem.llc_core_misses);
        writeU64Vector(os, r.shared_mem.port_grants);
        writeU64Vector(os, r.shared_mem.port_queued);
        os << ' ' << r.shared_mem.dram_queue_depth.sum();
        for (std::size_t i = 0; i < r.shared_mem.dram_queue_depth.buckets();
             ++i)
            os << ' ' << r.shared_mem.dram_queue_depth.count(i);
        for (const SimResult &core : r.core_results) {
            os << ' ';
            writeResultBody(os, core);
        }
    }
    os << '\n';
}

/**
 * Windows past this are a forged/garbled record, not a real timeline
 * (also bounds the allocation a hostile record can demand before the
 * stream check catches it).
 */
constexpr std::uint64_t kMaxTimelineWindows = 1'048'576;

void
readResultBody(std::istream &is, SimResult &r)
{
    is >> r.workload >> r.config_label >> r.instructions >>
        r.effective_instructions >> r.cycles;
    readFields(is, r.frontend, r.backend, r.branch, r.btb, r.l1i, r.l1d,
               r.l2, r.llc);
    std::string tag;
    std::uint64_t windows = 0;
    is >> tag;
    if (tag != "tl") {
        is.setstate(std::ios::failbit);
        return;
    }
    is >> r.scenario_timeline.window_size >> windows;
    if (!is || windows > kMaxTimelineWindows) {
        is.setstate(std::ios::failbit);
        return;
    }
    r.scenario_timeline.windows.assign(static_cast<std::size_t>(windows),
                                       ScenarioWindow{});
    for (ScenarioWindow &w : r.scenario_timeline.windows) {
        is >> w.start_cycle;
        for (std::uint64_t &c : w.cycles)
            is >> c;
    }
    // Optional hwpf section: absent on unprefetched records (and on
    // every record written before the section existed), so look ahead
    // and rewind when the next token is something else.
    const std::istream::pos_type mark = is.tellg();
    std::string hwpf_tag;
    if (!(is >> hwpf_tag) || hwpf_tag != "hwpf") {
        is.clear();
        is.seekg(mark);
        return;
    }
    std::uint64_t components = 0;
    is >> components;
    if (!is || components > 255) { // the pf_origin tag is a uint8_t
        is.setstate(std::ios::failbit);
        return;
    }
    r.hwpf.assign(static_cast<std::size_t>(components),
                  HwPrefetchCounters{});
    for (HwPrefetchCounters &c : r.hwpf)
        readFields(is, c);
}

/** Core counts past this are a garbled record, not a real machine. */
constexpr std::uint64_t kMaxSerializedCores = 256;

void
readU64Vector(std::istream &is, std::vector<std::uint64_t> &v)
{
    std::uint64_t n = 0;
    is >> n;
    if (!is || n > kMaxSerializedCores) {
        is.setstate(std::ios::failbit);
        return;
    }
    v.assign(static_cast<std::size_t>(n), 0);
    for (std::uint64_t &x : v)
        is >> x;
}

void
readResult(std::istream &is, SimResult &r)
{
    readResultBody(is, r);
    std::string tag;
    std::uint64_t cores = 0;
    is >> tag;
    if (tag != "mc") {
        is.setstate(std::ios::failbit);
        return;
    }
    is >> cores;
    if (!is || cores > kMaxSerializedCores) {
        is.setstate(std::ios::failbit);
        return;
    }
    if (cores == 0)
        return;
    readFields(is, r.shared_mem.llc, r.shared_mem.dram);
    readU64Vector(is, r.shared_mem.llc_core_hits);
    readU64Vector(is, r.shared_mem.llc_core_misses);
    readU64Vector(is, r.shared_mem.port_grants);
    readU64Vector(is, r.shared_mem.port_queued);
    std::uint64_t depth_sum = 0;
    is >> depth_sum;
    std::vector<std::uint64_t> depth_counts(
        r.shared_mem.dram_queue_depth.buckets(), 0);
    for (std::uint64_t &c : depth_counts)
        is >> c;
    if (is)
        r.shared_mem.dram_queue_depth.restore(depth_counts, depth_sum);
    r.core_results.assign(static_cast<std::size_t>(cores), SimResult{});
    for (SimResult &core : r.core_results)
        readResultBody(is, core);
}

} // namespace

void
writeSimResultText(std::ostream &os, const SimResult &result)
{
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    writeResult(os, result);
}

bool
readSimResultText(std::istream &is, SimResult &result)
{
    readResult(is, result);
    return static_cast<bool>(is);
}

std::string
campaignCachePath(const CampaignOptions &options)
{
    std::ostringstream oss;
    oss << options.cache_dir << "/sipre_campaign_v"
        << kCampaignCacheVersion << "_w" << options.workloads << "_i"
        << options.instructions << ".cache";
    return oss.str();
}

bool
loadCampaign(const CampaignOptions &options, CampaignResult &result)
{
    std::ifstream is(campaignCachePath(options));
    if (!is)
        return false;
    std::size_t n = 0;
    int version = 0;
    is >> version >> n;
    if (version != kCampaignCacheVersion || n != options.workloads)
        return false;
    result.workloads.resize(n);
    for (auto &rec : result.workloads) {
        is >> rec.name;
        readResult(is, rec.cons);
        readResult(is, rec.industry);
        readResult(is, rec.asmdb_cons);
        readResult(is, rec.asmdb_cons_ideal);
        readResult(is, rec.asmdb_ind);
        readResult(is, rec.asmdb_ind_ideal);
        is >> rec.static_bloat_cons >> rec.dynamic_bloat_cons >>
            rec.static_bloat_ind >> rec.dynamic_bloat_ind >>
            rec.insertions_ind >> rec.plan_min_distance_ind;
    }
    return static_cast<bool>(is);
}

void
saveCampaign(const CampaignOptions &options, const CampaignResult &result)
{
    std::ofstream os(campaignCachePath(options));
    if (!os)
        return;
    // Doubles (bloat ratios, latency sums) must survive the text
    // round-trip exactly; max_digits10 guarantees that.
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << kCampaignCacheVersion << ' ' << result.workloads.size() << '\n';
    for (const auto &rec : result.workloads) {
        os << rec.name << '\n';
        writeResult(os, rec.cons);
        writeResult(os, rec.industry);
        writeResult(os, rec.asmdb_cons);
        writeResult(os, rec.asmdb_cons_ideal);
        writeResult(os, rec.asmdb_ind);
        writeResult(os, rec.asmdb_ind_ideal);
        os << rec.static_bloat_cons << ' ' << rec.dynamic_bloat_cons << ' '
           << rec.static_bloat_ind << ' ' << rec.dynamic_bloat_ind << ' '
           << rec.insertions_ind << ' ' << rec.plan_min_distance_ind
           << '\n';
    }
}

namespace
{

/**
 * One baseline's three records: the base run, AsmDB on the rewritten
 * trace, and AsmDB without insertion overhead. The pipeline profiles on
 * the machine it targets, and its miss hook only observes, so the
 * profiling run is the base record: three simulations, not four.
 */
asmdb::AsmdbArtifacts
runBaseline(const Trace &trace, const SimConfig &config, SimResult &base,
            SimResult &asmdb, SimResult &ideal)
{
    const asmdb::BaselineProfile profile =
        asmdb::profileBaseline(trace, config);
    base = profile.run;
    asmdb::AsmdbArtifacts art = asmdb::runPipeline(trace, config, profile);
    {
        Simulator sim(config, art.rewrite.trace);
        asmdb = sim.run();
    }
    {
        Simulator sim(config, trace);
        sim.setSwPrefetchTriggers(&art.triggers);
        ideal = sim.run();
    }
    return art;
}

WorkloadRecord
runOneWorkload(const synth::WorkloadSpec &spec, std::size_t instructions,
               bool fast_forward)
{
    WorkloadRecord rec;
    rec.name = spec.name;
    const Trace trace = synth::generateTrace(spec, instructions);

    SimConfig cons = SimConfig::conservative();
    SimConfig industry = SimConfig::industry();
    cons.fast_forward = fast_forward;
    industry.fast_forward = fast_forward;

    {
        const auto art = runBaseline(trace, cons, rec.cons, rec.asmdb_cons,
                                     rec.asmdb_cons_ideal);
        rec.static_bloat_cons = art.rewrite.staticBloat();
        rec.dynamic_bloat_cons = art.rewrite.dynamicBloat();
    }
    {
        const auto art = runBaseline(trace, industry, rec.industry,
                                     rec.asmdb_ind, rec.asmdb_ind_ideal);
        rec.static_bloat_ind = art.rewrite.staticBloat();
        rec.dynamic_bloat_ind = art.rewrite.dynamicBloat();
        rec.insertions_ind = art.plan.insertions.size();
        rec.plan_min_distance_ind = art.plan.min_distance;
    }
    return rec;
}

} // namespace

CampaignOptions
CampaignOptions::fromEnv()
{
    CampaignOptions options;
    options.workloads = envSize("SIPRE_WORKLOADS", options.workloads);
    options.instructions =
        envSize("SIPRE_INSTRUCTIONS", options.instructions);
    options.threads =
        static_cast<unsigned>(envSize("SIPRE_THREADS", options.threads));
    if (std::getenv("SIPRE_NO_CACHE") != nullptr)
        options.use_cache = false;
    return options;
}

double
CampaignResult::geomeanSpeedup(SimResult WorkloadRecord::*config) const
{
    std::vector<double> speedups;
    speedups.reserve(workloads.size());
    for (const auto &rec : workloads) {
        const double base = rec.cons.ipc();
        const double ipc = (rec.*config).ipc();
        if (base > 0.0 && ipc > 0.0)
            speedups.push_back(ipc / base);
    }
    return geomean(speedups);
}

CampaignResult
runStandardCampaign(const CampaignOptions &options, std::ostream *progress)
{
    CampaignResult result;
    result.options = options;

    if (options.use_cache && loadCampaign(options, result)) {
        if (progress) {
            *progress << "[campaign] loaded " << result.workloads.size()
                      << " workloads from cache\n";
        }
        return result;
    }
    result.workloads.clear();

    const auto suite = synth::cvp1LikeSuite(options.workloads);
    result.workloads.resize(suite.size());

    unsigned threads = options.threads;
    if (threads == 0) {
        threads = std::max(1u, std::thread::hardware_concurrency());
        threads = std::min<unsigned>(
            threads, static_cast<unsigned>(suite.size()));
    }

    std::mutex io_mutex;
    std::size_t next = 0;
    std::mutex next_mutex;

    auto worker = [&]() {
        for (;;) {
            std::size_t index;
            {
                std::lock_guard<std::mutex> lock(next_mutex);
                if (next >= suite.size())
                    return;
                index = next++;
            }
            result.workloads[index] = runOneWorkload(
                suite[index], options.instructions, options.fast_forward);
            if (progress) {
                std::lock_guard<std::mutex> lock(io_mutex);
                *progress << "[campaign] " << suite[index].name
                          << " done (cons "
                          << result.workloads[index].cons.ipc()
                          << " IPC, industry "
                          << result.workloads[index].industry.ipc()
                          << " IPC)\n";
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (auto &thread : pool)
        thread.join();

    if (options.use_cache)
        saveCampaign(options, result);
    return result;
}

} // namespace sipre
