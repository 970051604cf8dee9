#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "asmdb/extensions.hpp"
#include "asmdb/layout.hpp"
#include "asmdb/providers.hpp"
#include "core/experiment.hpp"
#include "core/json_io.hpp"
#include "core/options.hpp"
#include "core/simulator.hpp"
#include "multicore/multicore.hpp"

namespace perfbench
{

using sipre::service::SimRequest;
namespace http = sipre::service::http;

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

unsigned
benchThreads()
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(4u, hw);
}

double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream ls(line.substr(6));
            double kb = 0.0;
            ls >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

const sipre::synth::WorkloadSpec &
suiteSpec(const std::string &name)
{
    static const std::vector<sipre::synth::WorkloadSpec> suite =
        sipre::synth::cvp1LikeSuite();
    for (const auto &spec : suite) {
        if (spec.name == name)
            return spec;
    }
    throw std::runtime_error("unknown workload " + name);
}

std::string
requestKey(const SimRequest &r)
{
    std::ostringstream os;
    os << "req&workload=" << r.workload << "&instructions=" << r.instructions
       << "&ftq=" << r.ftq_entries << "&mode=" << sipre::simModeName(r.mode)
       << "&hw_prefetcher=" << sipre::hwPrefetcherName(r.hw_prefetcher)
       << "&cores=" << r.cores;
    return os.str();
}

void
Report::metric(const std::string &name, double value, const std::string &unit,
               const std::string &note)
{
    metrics.push_back(Metric{name, value, unit, note});
}

void
Report::problem(const std::string &what)
{
    std::lock_guard<std::mutex> lock(problems_mutex);
    if (problems.size() < 20)
        problems.push_back(what);
    else if (problems.size() == 20)
        problems.push_back("(further problems not listed)");
}

std::string
Context::freshDir(const std::string &stem)
{
    const std::string dir =
        scratch_dir + "/" + stem + "-" + std::to_string(scratch_seq++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

const GoldenTable &
Context::golden()
{
    std::call_once(golden_once_, [this] {
        std::string error;
        if (!golden_.load(options.golden, error))
            throw std::runtime_error(error);
    });
    return golden_;
}

bool
checkDigests(Context &ctx, const std::string &key, std::string_view text,
             std::string_view json)
{
    const GoldenDigests *want = ctx.golden().find(key);
    if (want == nullptr) {
        ctx.report.problem("no golden digest for " + key);
        return false;
    }
    bool ok = true;
    if (!text.empty() && hex64(fnv1a64(text)) != want->text) {
        ctx.report.problem("campaign-text digest mismatch for " + key);
        ok = false;
    }
    if (!json.empty() && hex64(fnv1a64(json)) != want->json) {
        ctx.report.problem("JSON digest mismatch for " + key);
        ok = false;
    }
    return ok;
}

std::optional<std::string_view>
jsonObjectField(std::string_view body, std::string_view field,
                std::size_t from)
{
    std::string needle = "\"";
    needle.append(field).append("\":{");
    const std::size_t at = body.find(needle, from);
    if (at == std::string_view::npos)
        return std::nullopt;
    const std::size_t start = at + needle.size() - 1;
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = start; i < body.size(); ++i) {
        const char c = body[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{')
            ++depth;
        else if (c == '}' && --depth == 0)
            return body.substr(start, i - start + 1);
    }
    return std::nullopt;
}

double
scrapeMetric(const std::string &text, const std::string &name)
{
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.size() > name.size() && line.rfind(name, 0) == 0 &&
            line[name.size()] == ' ')
            return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
    return 0.0;
}

// ------------------------------------------------------------ HttpConn

HttpConn::HttpConn(std::uint16_t port) : port_(port) {}

HttpConn::~HttpConn()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
HttpConn::connect(std::string &error)
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = http::dialTcp("127.0.0.1", port_, &error);
    return fd_ >= 0;
}

bool
HttpConn::exchange(const std::string &method, const std::string &target,
                   const std::string &body, http::Response &response,
                   std::string &error)
{
    http::Request request;
    request.method = method;
    request.target = target;
    request.headers.emplace_back("Host", "127.0.0.1");
    if (!body.empty())
        request.headers.emplace_back("Content-Type", "application/json");
    request.body = body;
    for (int attempt = 0; attempt < 2; ++attempt) {
        if (fd_ < 0 && !connect(error))
            return false;
        response = http::Response{};
        if (http::roundTrip(fd_, request, response, &error, 60'000))
            return true;
        ::close(fd_);
        fd_ = -1;
    }
    return false;
}

// -------------------------------------------------------- ServiceStack

sipre::service::EngineOptions
engineOptions(unsigned workers)
{
    sipre::service::EngineOptions options;
    options.workers = workers;
    options.queue_capacity = 4 * workers;
    options.cache_capacity = 256;
    return options;
}

ServiceStack::ServiceStack(unsigned workers, const std::string &store_dir)
{
    engine_ = std::make_unique<sipre::service::SimulationEngine>(
        engineOptions(workers));
    sipre::service::ServerOptions server_options;
    server_options.connection_threads = workers;
    server_ = std::make_unique<sipre::service::ServiceServer>(*engine_,
                                                              server_options);
    if (!store_dir.empty()) {
        sipre::jobs::JobManagerOptions job_options;
        job_options.store_dir = store_dir;
        job_options.shard_workers = workers;
        jobs_ = std::make_unique<sipre::jobs::JobManager>(*engine_,
                                                          job_options);
        job_handler_ =
            std::make_unique<sipre::jobs::JobHttpHandler>(*jobs_);
        sipre::jobs::JobHttpHandler *handler = job_handler_.get();
        server_->addHandler([handler](const http::Request &request) {
            return handler->handle(request);
        });
        server_->addMetricsProvider(
            [handler] { return handler->metricsText(); });
    }
}

ServiceStack::~ServiceStack()
{
    stop();
}

bool
ServiceStack::start(std::string &error)
{
    return server_->start(&error);
}

void
ServiceStack::stop()
{
    // Listener first (no new requests), then the executors feeding the
    // engine, then the engine itself.
    server_->shutdown(/*drain_engine=*/false);
    if (jobs_)
        jobs_->shutdown();
    engine_->shutdown();
}

// ------------------------------------------------- hand-driven layers

LayerCounters &
layerCounters()
{
    static LayerCounters counters;
    return counters;
}

namespace
{

void
countTraced(std::atomic<std::uint64_t> &counter, std::uint64_t n)
{
    if (SpanRecorder::instance().enabled())
        counter += n;
}

} // namespace

sipre::Trace
tracedGenerate(const std::string &workload, std::uint64_t instructions)
{
    const sipre::synth::WorkloadSpec &spec = suiteSpec(workload);
    ScopedSpan span("trace.generate");
    return sipre::synth::generateTrace(spec, instructions);
}

sipre::SimResult
tracedSim(const sipre::SimConfig &config, const sipre::Trace &trace,
          const sipre::SwPrefetchTriggers *triggers,
          const sipre::asmdb::AsmdbPlan *metadata_plan)
{
    sipre::Simulator sim(config, trace);
    if (triggers != nullptr)
        sim.setSwPrefetchTriggers(triggers);
    if (metadata_plan != nullptr)
        sim.attachMetadataPreloader(sipre::MetadataPreloadConfig{},
                                    sipre::asmdb::buildMetadataMap(
                                        *metadata_plan));
    sipre::SimResult result;
    {
        ScopedSpan span("core.sim_run");
        result = sim.run();
    }
    countTraced(layerCounters().sim_cycles, result.cycles);
    countTraced(layerCounters().sim_instructions, result.instructions);
    return result;
}

sipre::asmdb::AsmdbArtifacts
tracedPipeline(const sipre::Trace &trace, const sipre::SimConfig &config)
{
    using namespace sipre::asmdb;
    ScopedSpan pipeline_span("asmdb.pipeline");
    AsmdbArtifacts artifacts;
    const AsmdbParams params;

    std::unordered_map<sipre::Addr, std::uint64_t> line_misses;
    {
        sipre::Simulator sim(config, trace);
        sim.setL1iMissHook(
            [&line_misses](sipre::Addr line) { ++line_misses[line]; });
        ScopedSpan span("asmdb.profile");
        artifacts.profile_run = sim.run();
    }
    std::optional<Cfg> cfg;
    {
        ScopedSpan span("asmdb.cfg");
        cfg.emplace(Cfg::build(trace, line_misses));
    }
    {
        ScopedSpan span("asmdb.plan");
        const sipre::Cycle miss_latency = config.memory.l1i.latency +
                                          config.memory.l2.latency +
                                          config.memory.llc.latency;
        const auto provider = makeDistanceProvider(params.distance_provider);
        artifacts.decision = provider->decide(
            ProviderInputs{*cfg, line_misses, artifacts.profile_run,
                           params.external_profile, miss_latency},
            params);
        artifacts.plan =
            buildPlan(*cfg, line_misses, artifacts.decision, params);
    }
    {
        ScopedSpan span("asmdb.rewrite");
        const CodeLayout layout(artifacts.plan);
        artifacts.rewrite = rewriteTrace(trace, artifacts.plan, layout);
        artifacts.triggers = buildTriggers(artifacts.plan);
    }
    return artifacts;
}

bool
sameArtifacts(const sipre::asmdb::AsmdbArtifacts &a,
              const sipre::asmdb::AsmdbArtifacts &b)
{
    if (a.decision.min_distance != b.decision.min_distance ||
        a.decision.window != b.decision.window ||
        a.decision.eval_runs != b.decision.eval_runs ||
        a.decision.overrides.size() != b.decision.overrides.size())
        return false;
    for (const auto &[line, t] : a.decision.overrides) {
        const auto it = b.decision.overrides.find(line);
        if (it == b.decision.overrides.end() ||
            it->second.min_distance != t.min_distance ||
            it->second.window != t.window)
            return false;
    }
    const auto &pa = a.plan;
    const auto &pb = b.plan;
    if (pa.total_misses != pb.total_misses ||
        pa.targeted_misses != pb.targeted_misses ||
        pa.min_distance != pb.min_distance || pa.window != pb.window ||
        pa.insertions.size() != pb.insertions.size())
        return false;
    for (std::size_t i = 0; i < pa.insertions.size(); ++i) {
        const auto &x = pa.insertions[i];
        const auto &y = pb.insertions[i];
        if (x.site_pc != y.site_pc || x.target_line != y.target_line ||
            x.path_prob != y.path_prob ||
            x.expected_covered != y.expected_covered || x.range != y.range)
            return false;
    }
    const auto &ra = a.rewrite;
    const auto &rb = b.rewrite;
    if (ra.inserted_static != rb.inserted_static ||
        ra.inserted_dynamic != rb.inserted_dynamic ||
        ra.original_static != rb.original_static ||
        ra.original_dynamic != rb.original_dynamic ||
        ra.trace.size() != rb.trace.size())
        return false;
    for (std::size_t i = 0; i < ra.trace.size(); ++i) {
        const auto &x = ra.trace[i];
        const auto &y = rb.trace[i];
        if (x.pc != y.pc || x.target != y.target || x.mem_addr != y.mem_addr ||
            x.cls != y.cls || x.size != y.size || x.taken != y.taken)
            return false;
    }
    return a.triggers == b.triggers;
}

std::string
tracedJson(const sipre::SimResult &result)
{
    std::string json;
    {
        ScopedSpan span("core.json");
        json = sipre::simResultToJson(result);
    }
    countTraced(layerCounters().json_bytes, json.size());
    return json;
}

std::string
tracedText(const sipre::SimResult &result)
{
    std::string text;
    {
        ScopedSpan span("core.text");
        text = resultText(result);
    }
    countTraced(layerCounters().text_bytes, text.size());
    return text;
}

sipre::SimResult
handDriven(const SimRequest &request)
{
    using sipre::SimMode;
    const sipre::SimConfig config = request.toConfig();
    const std::vector<std::string> mix = request.effectiveMix();

    std::vector<sipre::Trace> traces;
    traces.reserve(mix.size());
    for (const std::string &name : mix) {
        traces.push_back(tracedGenerate(name, request.instructions));
        if (mix.size() > 1)
            traces.back().rebase((traces.size() - 1) *
                                 sipre::kCoreAddressStride);
    }
    // Reserved up front: run_traces points into the artifacts.
    std::vector<sipre::asmdb::AsmdbArtifacts> artifacts;
    artifacts.reserve(traces.size());
    std::vector<const sipre::Trace *> run_traces;
    for (const sipre::Trace &t : traces)
        run_traces.push_back(&t);
    if (request.mode != SimMode::kBase) {
        for (std::size_t i = 0; i < traces.size(); ++i) {
            artifacts.push_back(tracedPipeline(traces[i], config));
            if (request.mode == SimMode::kAsmdb)
                run_traces[i] = &artifacts.back().rewrite.trace;
        }
    }

    if (mix.size() == 1) {
        const sipre::asmdb::AsmdbArtifacts *a =
            artifacts.empty() ? nullptr : &artifacts[0];
        return tracedSim(
            config, *run_traces[0],
            request.mode == SimMode::kNoOverhead ? &a->triggers : nullptr,
            request.mode == SimMode::kMetadata ? &a->plan : nullptr);
    }

    sipre::MultiCoreSimulator sim(config, run_traces);
    for (std::size_t i = 0; i < artifacts.size(); ++i) {
        if (request.mode == SimMode::kNoOverhead)
            sim.setSwPrefetchTriggers(i, &artifacts[i].triggers);
        else if (request.mode == SimMode::kMetadata)
            sim.attachMetadataPreloader(
                i, sipre::MetadataPreloadConfig{},
                sipre::asmdb::buildMetadataMap(artifacts[i].plan));
    }
    sipre::SimResult result;
    {
        ScopedSpan span("multicore.run");
        result = sim.run();
    }
    countTraced(layerCounters().mc_cycles, result.cycles);
    return result;
}

void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::exception_ptr failure;
    std::mutex failure_mutex;
    auto worker = [&] {
        for (;;) {
            const std::size_t i = next++;
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(failure_mutex);
                if (!failure)
                    failure = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < std::max(1u, threads); ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    if (failure)
        std::rethrow_exception(failure);
}

// ------------------------------------------------------------- metrics

namespace
{

std::string
sampleNote(std::size_t n)
{
    return "n=" + std::to_string(n);
}

std::string
tailNote(const TailPercentile &tail)
{
    std::ostringstream os;
    os << 'p' << tail.percentile << " of " << tail.samples << ", "
       << tail.beyond << " beyond"
       << (tail.qualified ? "" : " (too few samples: median)");
    return os.str();
}

} // namespace

void
emitEndToEnd(Report &report, const std::vector<RoundSample> &rounds)
{
    std::vector<double> setup, wall, mips, rps, rss;
    std::vector<std::vector<double>> latencies;
    for (const RoundSample &r : rounds) {
        if (r.setup_s >= 0.0)
            setup.push_back(r.setup_s);
        wall.push_back(r.wall_s);
        rss.push_back(r.peak_rss_mb);
        latencies.push_back(r.latencies_ms);
        if (r.wall_s > 0.0) {
            mips.push_back(r.instructions / r.wall_s / 1e6);
            rps.push_back(r.results / r.wall_s);
        }
    }
    const std::string rounds_note = sampleNote(rounds.size()) + " rounds";
    report.metric("setup_s", median(setup), "s",
                  sampleNote(setup.size()) + " set-ups");
    report.metric("wall_s", median(wall), "s", rounds_note);
    report.metric("mips", median(mips), "Minstr/s", rounds_note);
    report.metric("rps", median(rps), "1/s", rounds_note);
    const LatencySummary lat = summarizeLatencies(latencies);
    const std::string how =
        lat.per_round ? "median over " + rounds_note + " of per-round "
                      : std::string("pooled over ") + rounds_note + ", ";
    report.metric("p50_ms", lat.p50, "ms", how + "p50");
    report.metric("p99_ms", lat.tail.value, "ms", how + tailNote(lat.tail));
    report.metric("peak_rss_mb", median(rss), "MB",
                  rounds_note + ", VmHWM reset per round");
}

void
runRounds(Context &ctx,
          const std::function<void(std::size_t, RoundSample &)> &round)
{
    std::vector<RoundSample> rounds;
    double measured = 0.0;
    while (rounds.empty() || measured < ctx.options.seconds) {
        RoundSample sample;
        resetPeakRss();
        round(rounds.size(), sample);
        measured += sample.wall_s;
        rounds.push_back(std::move(sample));
    }
    emitEndToEnd(ctx.report, rounds);
}

void
addRequestDigests(GoldenTable &golden, const std::vector<SimRequest> &requests,
                  unsigned threads)
{
    std::vector<GoldenDigests> digests(requests.size());
    parallelFor(requests.size(), threads, [&](std::size_t i) {
        const sipre::SimResult result =
            sipre::service::runSimRequest(requests[i]);
        const std::string text = resultText(result);
        if (resultText(handDriven(requests[i])) != text)
            throw std::runtime_error("layer-by-layer recipe disagrees with "
                                     "runSimRequest for " +
                                     requests[i].canonicalKey());
        digests[i] = GoldenDigests{
            hex64(fnv1a64(text)),
            hex64(fnv1a64(sipre::simResultToJson(result)))};
    });
    for (std::size_t i = 0; i < requests.size(); ++i)
        golden.put(requestKey(requests[i]), digests[i]);
}

void
emitLayerMetrics(Report &report, const std::vector<Span> &spans,
                 std::uint64_t root, const LayerExtras &extras)
{
    const auto totals = totalsByName(spans);
    const auto get = [&totals](const std::string &name) {
        const auto it = totals.find(name);
        return it == totals.end() ? SpanTotals{} : it->second;
    };
    const auto count = [](const SpanTotals &t) {
        return static_cast<double>(t.count);
    };
    const auto mean_us = [](const SpanTotals &t) {
        return t.count == 0 ? 0.0 : t.total_us / static_cast<double>(t.count);
    };
    const auto n = [](const SpanTotals &t) {
        return "n=" + std::to_string(t.count);
    };
    const LayerCounters &c = layerCounters();
    for (const auto &[name, t] : totals) {
        std::ostringstream os;
        os << "span " << name << " n=" << t.count
           << " total_ms=" << t.total_us / 1e3
           << " self_ms=" << t.self_us / 1e3;
        report.notes.push_back(os.str());
    }

    const SpanTotals gen = get("trace.generate");
    report.metric("trace.generate_ms", gen.total_us / 1e3, "ms", n(gen));
    report.metric("trace.generate_calls", count(gen), "count");

    const SpanTotals sim = get("core.sim_run");
    report.metric("core.sim_run_ms", sim.total_us / 1e3, "ms", n(sim));
    report.metric("core.sim_runs", count(sim), "count");
    report.metric("core.sim_ns_per_cycle",
                  c.sim_cycles == 0 ? 0.0
                                    : sim.total_us * 1e3 /
                                          static_cast<double>(c.sim_cycles),
                  "ns/cycle", n(sim));
    report.metric("core.sim_mips",
                  sim.total_us == 0.0
                      ? 0.0
                      : static_cast<double>(c.sim_instructions) /
                            sim.total_us,
                  "Minstr/s", n(sim));

    const SpanTotals pipe = get("asmdb.pipeline");
    report.metric("asmdb.pipeline_ms", pipe.total_us / 1e3, "ms", n(pipe));
    report.metric("asmdb.pipelines", count(pipe), "count");
    for (const char *stage : {"profile", "cfg", "plan", "rewrite"}) {
        const SpanTotals t = get(std::string("asmdb.") + stage);
        report.metric(std::string("asmdb.") + stage + "_ms",
                      t.total_us / 1e3, "ms", n(t));
    }

    const SpanTotals mc = get("multicore.run");
    report.metric("multicore.run_ms", mc.total_us / 1e3, "ms", n(mc));
    report.metric("multicore.runs", count(mc), "count");
    report.metric("multicore.ns_per_cycle",
                  c.mc_cycles == 0 ? 0.0
                                   : mc.total_us * 1e3 /
                                         static_cast<double>(c.mc_cycles),
                  "ns/cycle", n(mc));

    const SpanTotals json = get("core.json");
    report.metric("core.json_us", mean_us(json), "us", n(json));
    report.metric("core.json_bytes",
                  json.count == 0 ? 0.0
                                  : static_cast<double>(c.json_bytes) /
                                        static_cast<double>(json.count),
                  "B", n(json));
    const SpanTotals text = get("core.text");
    report.metric("core.text_us", mean_us(text), "us", n(text));
    report.metric("core.text_bytes",
                  text.count == 0 ? 0.0
                                  : static_cast<double>(c.text_bytes) /
                                        static_cast<double>(text.count),
                  "B", n(text));

    const SpanTotals parse = get("service.http_parse");
    report.metric("service.http_parse_us", mean_us(parse), "us", n(parse));
    const SpanTotals submit_hit = get("service.submit_hit");
    report.metric("service.submit_hit_us", mean_us(submit_hit), "us",
                  n(submit_hit));
    const SpanTotals rtt_hit = get("service.rtt_hit");
    report.metric("service.rtt_hit_us", median(rtt_hit.durations_us), "us",
                  "median, " + n(rtt_hit));
    const SpanTotals rtt_miss = get("service.rtt_miss");
    report.metric("service.rtt_miss_ms",
                  median(rtt_miss.durations_us) / 1e3, "ms",
                  "median, " + n(rtt_miss));

    const SpanTotals expand = get("jobs.expand");
    report.metric("jobs.expand_us", mean_us(expand), "us", n(expand));
    const SpanTotals shard = get("jobs.shard");
    std::vector<double> shard_ms;
    for (const double us : shard.durations_us)
        shard_ms.push_back(us / 1e3);
    report.metric("jobs.shards", count(shard), "count");
    report.metric("jobs.shard_p50_ms", median(shard_ms), "ms", n(shard));
    const TailPercentile shard_tail = tailPercentile(shard_ms);
    report.metric("jobs.shard_p99_ms", shard_tail.value, "ms",
                  tailNote(shard_tail));
    const SpanTotals fetch = get("jobs.result_fetch");
    report.metric("jobs.result_fetch_ms", fetch.total_us / 1e3, "ms",
                  n(fetch));

    report.metric("asmdb.pipelines_per_shard", extras.pipelines_per_shard,
                  "ratio", "sipre_asmdb_runs_total / shards");
    report.metric("jobs.checkpoint_ms", extras.checkpoint_ms, "ms",
                  "saveJobRecord at final record size, median");
    report.metric("jobs.record_bytes", extras.record_bytes, "B");
    report.metric("service.hit_ratio", extras.hit_ratio, "ratio",
                  "/metrics");
    report.metric("service.coalesced", extras.coalesced, "count",
                  "/metrics");
    report.metric("service.rejected", extras.rejected, "count", "/metrics");
    report.metric("service.sim_runs", extras.sim_runs, "count", "/metrics");

    report.metric("bench.span_coverage", layerCoverage(spans, root),
                  "ratio", "layer spans / per-item wrapper spans");
    report.metric("bench.trace_overhead_pct",
                  extras.untraced_s > 0.0
                      ? (extras.traced_s - extras.untraced_s) /
                            extras.untraced_s * 100.0
                      : 0.0,
                  "%", "decomposed round, spans on vs off");
    std::ostringstream os;
    os << "decomposed round untraced " << extras.untraced_s << " s, traced "
       << extras.traced_s << " s";
    report.notes.push_back(os.str());
}

} // namespace perfbench
