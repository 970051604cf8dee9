/**
 * @file
 * `sweep`: one asynchronous job per round through the endpoints the
 * sipre_jobs client uses (POST /jobs, poll GET /jobs/<id>, GET
 * /jobs/<id>/result) against an in-process server whose job store is
 * a fresh directory. The spec crosses one server workload with modes
 * {base, asmdb, noovh, metadata} x ftq {2, 24} x cores {1, 2}: 16
 * shards, 12 of which run the AsmDB pipeline and 8 the multi-core
 * simulator. The seed fixes the order in which rounds walk the 33
 * server workloads.
 */
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "core/json_io.hpp"
#include "jobs/job_store.hpp"
#include "jobs/sweep.hpp"
#include "workloads.hpp"

namespace perfbench
{

namespace
{

namespace http = sipre::service::http;

constexpr std::uint64_t kInstructions = 50'000;
constexpr std::size_t kWorkloadsPerJob = 1;
constexpr const char *kAxes =
    "\"mode\":[\"base\",\"asmdb\",\"noovh\",\"metadata\"],"
    "\"ftq\":[2,24],\"cores\":[1,2]";

std::vector<std::string>
serverWorkloads()
{
    std::vector<std::string> names;
    for (const auto &spec : sipre::synth::cvp1LikeSuite()) {
        if (spec.archetype == sipre::synth::Archetype::kServer)
            names.push_back(spec.name);
    }
    return names;
}

std::string
specJson(const std::vector<std::string> &workloads)
{
    return "{\"workloads\":" + sipre::jsonStringArray(workloads) +
           ",\"instructions\":" + std::to_string(kInstructions) + "," +
           kAxes + "}";
}

/**
 * The round's spec. The seed fixes a permutation of the server
 * workloads and round r takes the next kWorkloadsPerJob of it, so every
 * run walks the whole pool evenly whatever its seed: the per-round
 * costs differ by workload, and an even walk keeps run medians steady.
 */
std::string
roundSpec(std::uint64_t seed, std::size_t round)
{
    std::vector<std::string> pool = serverWorkloads();
    Rng rng(seed);
    rng.shuffle(pool);
    std::vector<std::string> picked;
    for (std::size_t i = 0; i < kWorkloadsPerJob; ++i)
        picked.push_back(pool[(round * kWorkloadsPerJob + i) % pool.size()]);
    return specJson(picked);
}

std::vector<sipre::service::SimRequest>
expand(const std::string &spec_json, sipre::jobs::SweepSpec &spec)
{
    std::string error;
    if (!sipre::jobs::parseSweepSpec(spec_json, spec, error))
        throw std::runtime_error("sweep spec rejected: " + error);
    return sipre::jobs::expandSweep(spec);
}

/** What one job round delivered. */
struct JobOutcome
{
    double wall_s = 0.0;
    std::uint64_t id = 0;
    bool refused = false;
    std::string result_body;
    std::string metrics_text; ///< /metrics after the job, when asked for
};

/**
 * Submit the spec, poll until the job is terminal and fetch its
 * results: the timed operation. Transport errors throw.
 */
JobOutcome
runJob(ServiceStack &stack, const std::string &spec_json, bool scrape)
{
    JobOutcome out;
    HttpConn conn(stack.port());
    http::Response response;
    std::string error;

    const double t0 = nowS();
    {
        ScopedSpan span("jobs.submit");
        if (!conn.exchange("POST", "/jobs", spec_json, response, error))
            throw std::runtime_error("POST /jobs failed: " + error);
    }
    if (response.status == 429) {
        out.refused = true;
        return out;
    }
    sipre::JsonValue doc;
    const sipre::JsonValue *id = nullptr;
    if (response.status != 202 ||
        !sipre::parseJson(response.body, doc, error) ||
        (id = doc.find("id")) == nullptr || !id->isNumber())
        throw std::runtime_error("POST /jobs: unexpected reply " +
                                 std::to_string(response.status) + " " +
                                 response.body);
    out.id = static_cast<std::uint64_t>(id->number);
    const std::string target = "/jobs/" + std::to_string(out.id);
    {
        ScopedSpan span("jobs.wait");
        for (;;) {
            if (!conn.exchange("GET", target, "", response, error))
                throw std::runtime_error("GET " + target + ": " + error);
            const std::string &b = response.body;
            if (b.find("\"state\":\"completed\"") != std::string::npos ||
                b.find("\"state\":\"failed\"") != std::string::npos ||
                b.find("\"state\":\"cancelled\"") != std::string::npos)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
    {
        ScopedSpan span("jobs.result_fetch");
        if (!conn.exchange("GET", target + "/result", "", response, error))
            throw std::runtime_error("GET " + target + "/result: " + error);
    }
    out.wall_s = nowS() - t0;
    if (response.status != 200)
        throw std::runtime_error("GET " + target + "/result: status " +
                                 std::to_string(response.status));
    out.result_body = std::move(response.body);
    if (scrape && conn.exchange("GET", "/metrics", "", response, error) &&
        response.status == 200)
        out.metrics_text = std::move(response.body);
    return out;
}

/**
 * Check every shard the job delivered: the JSON in the result document
 * and the campaign text in the persisted job record must both match
 * the golden digests. Returns the retired instructions delivered.
 */
double
verifyJob(Context &ctx, const JobOutcome &job, const std::string &store,
          const std::vector<sipre::service::SimRequest> &shards)
{
    OpCounts &counts = ctx.report.counts;
    if (job.refused) {
        counts.refused += shards.size();
        ctx.report.problem("job refused (429)");
        return 0.0;
    }
    sipre::jobs::JobRecord record;
    const bool have_record = sipre::jobs::loadJobRecord(
        sipre::jobs::jobRecordPath(store, job.id), record);
    if (!have_record || record.shards.size() != shards.size())
        ctx.report.problem("job record unreadable or wrong shard count");

    const std::string_view body = job.result_body;
    double instructions = 0.0;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const std::string head = "{\"index\":" + std::to_string(i) + ",";
        const std::size_t at = body.find(head);
        const std::size_t end =
            body.find("{\"index\":" + std::to_string(i + 1) + ",", at);
        const std::string_view element =
            at == std::string_view::npos ? std::string_view()
                                         : body.substr(at, end - at);
        if (element.find("\"state\":\"done\"") == std::string_view::npos ||
            !have_record || i >= record.shards.size() ||
            record.shards[i].state != sipre::jobs::ShardState::kDone) {
            ++counts.failed;
            ctx.report.problem("shard " + std::to_string(i) + " not done");
            continue;
        }
        const auto json = jsonObjectField(element, "result");
        const sipre::SimResult &result = record.shards[i].result;
        const bool ok = json.has_value() &&
                        checkDigests(ctx, requestKey(shards[i]),
                                     resultText(result), *json);
        ++(ok ? counts.ok : counts.wrong);
        instructions += static_cast<double>(result.instructions);
    }
    return instructions;
}

/** The completed job record the store would hold for these results. */
sipre::jobs::JobRecord
finalRecord(const sipre::jobs::SweepSpec &spec,
            const std::vector<sipre::service::SimRequest> &shards,
            std::vector<sipre::SimResult> results)
{
    sipre::jobs::JobRecord record;
    record.id = 1;
    record.state = sipre::jobs::JobState::kCompleted;
    record.spec = spec;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        sipre::jobs::ShardRecord shard;
        shard.request = shards[i];
        shard.key = shards[i].canonicalKey();
        shard.state = sipre::jobs::ShardState::kDone;
        shard.result = std::move(results[i]);
        record.shards.push_back(std::move(shard));
    }
    return record;
}

/** The decomposed round's deliveries. */
struct Decomposed
{
    std::vector<sipre::SimResult> results;
    std::vector<std::string> texts;
    std::vector<std::string> jsons;
    std::uint64_t root_id = 0;
    double seconds = 0.0;
};

/**
 * The executor's work for one job, shard by shard, on as many threads
 * as the job manager uses: expand the spec, then per shard the
 * layer-by-layer recipe and both serializations.
 */
Decomposed
decomposedRound(const std::string &spec_json, unsigned threads)
{
    Decomposed d;
    const double t0 = nowS();
    {
        ScopedSpan root("sweep.round");
        d.root_id = root.id();
        std::vector<sipre::service::SimRequest> expanded;
        {
            ScopedSpan span("jobs.expand");
            sipre::jobs::SweepSpec reparsed;
            std::string error;
            if (!sipre::jobs::parseSweepSpec(spec_json, reparsed, error))
                throw std::runtime_error(error);
            expanded = sipre::jobs::expandSweep(reparsed);
        }
        d.results.resize(expanded.size());
        d.texts.resize(expanded.size());
        d.jsons.resize(expanded.size());
        parallelFor(expanded.size(), threads, [&](std::size_t i) {
            ScopedSpan span("jobs.shard", i, d.root_id);
            d.results[i] = handDriven(expanded[i]);
            d.texts[i] = tracedText(d.results[i]);
            d.jsons[i] = tracedJson(d.results[i]);
        });
    }
    d.seconds = nowS() - t0;
    return d;
}

} // namespace

void
runSweep(Context &ctx)
{
    const unsigned threads = benchThreads();
    if (!ctx.options.trace) {
        runRounds(ctx, [&](std::size_t index, RoundSample &round) {
            const std::string spec_json = roundSpec(ctx.options.seed, index);
            sipre::jobs::SweepSpec spec;
            const auto shards = expand(spec_json, spec);
            const std::string store = ctx.freshDir("jobs");
            // Set-up: the daemon's stack (engine, job manager over the
            // empty store, listener).
            const double t0 = nowS();
            ServiceStack stack(threads, store);
            std::string error;
            if (!stack.start(error))
                throw std::runtime_error("server start: " + error);
            round.setup_s = nowS() - t0;

            const JobOutcome job = runJob(stack, spec_json, false);
            round.peak_rss_mb = peakRssMb();
            stack.stop();
            round.wall_s = job.wall_s;
            round.results = static_cast<double>(shards.size());
            round.instructions = verifyJob(ctx, job, store, shards);
            std::filesystem::remove_all(store);
            round.latencies_ms.push_back(round.wall_s * 1e3);
        });
        return;
    }

    const std::string spec_json = roundSpec(ctx.options.seed, 0);
    sipre::jobs::SweepSpec spec;
    const auto shards = expand(spec_json, spec);
    SpanRecorder &recorder = SpanRecorder::instance();
    LayerExtras extras;

    // The job over HTTP with spans on the client calls: the result
    // fetch time, and the server's own counters from /metrics.
    {
        const std::string store = ctx.freshDir("jobs");
        ServiceStack stack(threads, store);
        std::string error;
        if (!stack.start(error))
            throw std::runtime_error("server start: " + error);
        recorder.enable(true);
        const JobOutcome job = runJob(stack, spec_json, true);
        recorder.enable(false);
        stack.stop();
        verifyJob(ctx, job, store, shards);
        std::filesystem::remove_all(store);
        const double n = static_cast<double>(shards.size());
        const std::string &m = job.metrics_text;
        extras.pipelines_per_shard =
            scrapeMetric(m, "sipre_asmdb_runs_total") / n;
        extras.hit_ratio = scrapeMetric(m, "sipre_cache_hit_rate");
        extras.coalesced = scrapeMetric(m, "sipre_coalesced_total");
        extras.rejected = scrapeMetric(m, "sipre_rejected_total");
        extras.sim_runs = scrapeMetric(m, "sipre_sim_runs_total");
    }

    // The decomposed round with spans off, then on: the tracing
    // overhead is the difference between the two.
    Decomposed d;
    for (const bool traced : {false, true}) {
        recorder.enable(traced);
        d = decomposedRound(spec_json, threads);
        recorder.enable(false);
        (traced ? extras.traced_s : extras.untraced_s) = d.seconds;
        for (std::size_t i = 0; i < shards.size(); ++i)
            ++(checkDigests(ctx, requestKey(shards[i]), d.texts[i],
                            d.jsons[i])
                   ? ctx.report.counts.ok
                   : ctx.report.counts.wrong);
    }

    // Checkpoint cost at the final record size.
    const std::string store = ctx.freshDir("checkpoint");
    const sipre::jobs::JobRecord record =
        finalRecord(spec, shards, std::move(d.results));
    std::vector<double> save_ms;
    for (int rep = 0; rep < 5; ++rep) {
        const double s0 = nowS();
        if (!sipre::jobs::saveJobRecord(store, record))
            throw std::runtime_error("saveJobRecord failed in " + store);
        save_ms.push_back((nowS() - s0) * 1e3);
    }
    extras.checkpoint_ms = median(save_ms);
    extras.record_bytes = static_cast<double>(std::filesystem::file_size(
        sipre::jobs::jobRecordPath(store, record.id)));
    std::filesystem::remove_all(store);

    emitLayerMetrics(ctx.report, recorder.spans(), d.root_id, extras);
}

void
goldenSweep(GoldenTable &golden, unsigned threads)
{
    sipre::jobs::SweepSpec spec;
    addRequestDigests(golden, expand(specJson(serverWorkloads()), spec),
                      threads);
}

} // namespace perfbench
