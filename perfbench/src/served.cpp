/**
 * @file
 * `served`: a closed loop of keep-alive clients (one per bench thread)
 * on POST /simulate against an in-process server. Each round starts a
 * fresh server, fills a seeded warm key set (set-up), then sends a
 * seeded stream of requests: mostly repeats of the warm keys (LRU hits)
 * and some cold base-mode keys (varied workload, ftq {2, 24},
 * hw_prefetcher {none, fdip}) that simulate; a few cold keys are sent
 * twice back to back so two clients ask for them at once (coalescing).
 * No AsmDB or multi-core code runs here.
 *
 * The mix is an assumption, not recorded traffic: it follows
 * bench_service_throughput's default repeat model (8 distinct keys per
 * 4 clients x 64 requests), so one request in 32 is the first send of
 * a key. A fifth of the cold keys go out as pairs. rps, p50_ms and
 * p99_ms follow the hit/cold ratio: p50 is a hit, p99 a cold simulation.
 */
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "core/json_io.hpp"
#include "core/options.hpp"
#include "workloads.hpp"

namespace perfbench
{

namespace
{

namespace http = sipre::service::http;
using sipre::service::SimRequest;

constexpr std::uint64_t kInstructions = 50'000;
constexpr std::size_t kRequests = 1600;
constexpr std::size_t kWarmKeys = 8;
constexpr std::size_t kColdKeys = kRequests / 32;
constexpr std::size_t kColdPairs = kColdKeys / 5;
constexpr std::size_t kColdSingles = kColdKeys - kColdPairs;

/** Every key the workload can send: 48 workloads x ftq x hw_prefetcher. */
std::vector<SimRequest>
keySpace()
{
    std::vector<SimRequest> keys;
    for (const auto &spec : sipre::synth::cvp1LikeSuite()) {
        for (const std::uint32_t ftq : {2u, 24u}) {
            for (const auto hwpf : {sipre::IPrefetcherKind::kNone,
                                    sipre::IPrefetcherKind::kFdip}) {
                SimRequest r;
                r.workload = spec.name;
                r.instructions = kInstructions;
                r.ftq_entries = ftq;
                r.mode = sipre::SimMode::kBase;
                r.hw_prefetcher = hwpf;
                keys.push_back(r);
            }
        }
    }
    return keys;
}

std::string
requestBody(const SimRequest &r)
{
    return "{\"workload\":\"" + r.workload +
           "\",\"instructions\":" + std::to_string(r.instructions) +
           ",\"ftq\":" + std::to_string(r.ftq_entries) +
           ",\"mode\":\"base\",\"hw_prefetcher\":\"" +
           sipre::hwPrefetcherName(r.hw_prefetcher) + "\"}";
}

/** One round's inputs, all drawn from the seed and the round index. */
struct Stream
{
    std::vector<SimRequest> warm;
    std::vector<SimRequest> keys;   ///< per slot
    std::vector<std::string> bodies; ///< per slot
    std::vector<bool> cold;          ///< per slot: first send of a cold key
};

Stream
makeStream(std::uint64_t seed, std::size_t round)
{
    Rng rng(seed * 0xd1b54a32d192ed03ULL + round);
    std::vector<SimRequest> pool = keySpace();
    rng.shuffle(pool);
    Stream s;
    s.warm.assign(pool.begin(), pool.begin() + kWarmKeys);

    // Items: a hit, a cold single, or a cold pair (two adjacent slots).
    struct Item
    {
        std::size_t key;
        int copies;
    };
    std::vector<Item> items;
    const std::size_t hits = kRequests - kColdSingles - 2 * kColdPairs;
    for (std::size_t i = 0; i < hits; ++i)
        items.push_back(Item{rng.below(kWarmKeys), 1});
    for (std::size_t i = 0; i < kColdSingles + kColdPairs; ++i)
        items.push_back(Item{kWarmKeys + i, i < kColdSingles ? 1 : 2});
    rng.shuffle(items);
    for (const Item &item : items) {
        for (int c = 0; c < item.copies; ++c) {
            s.keys.push_back(pool[item.key]);
            s.bodies.push_back(requestBody(pool[item.key]));
            s.cold.push_back(item.key >= kWarmKeys && c == 0);
        }
    }
    return s;
}

/** A delivered response, kept for checking after the timed phase. */
struct Reply
{
    int status = 0; ///< 0 = transport failure
    bool cached = false;
    double rtt_ms = 0.0;
    std::string body;
};

/**
 * The closed loop: `clients` keep-alive connections pull the next slot
 * of the stream until it is exhausted. With tracing on, each round trip
 * becomes a service.rtt_hit / service.rtt_miss span under `parent`.
 */
std::vector<Reply>
closedLoop(std::uint16_t port, const std::vector<std::string> &bodies,
           unsigned clients, std::uint64_t parent)
{
    std::vector<Reply> replies(bodies.size());
    std::atomic<std::size_t> next{0};
    SpanRecorder &recorder = SpanRecorder::instance();
    auto client = [&] {
        HttpConn conn(port);
        http::Response response;
        std::string error;
        for (;;) {
            const std::size_t i = next++;
            if (i >= bodies.size())
                return;
            Reply &reply = replies[i];
            const double t0 = recorder.nowUs();
            if (conn.exchange("POST", "/simulate", bodies[i], response,
                              error)) {
                reply.status = response.status;
                reply.body = std::move(response.body);
            }
            const double t1 = recorder.nowUs();
            reply.rtt_ms = (t1 - t0) / 1e3;
            reply.cached = reply.body.find("\"cached\":true") !=
                           std::string::npos;
            recordSpan(reply.cached ? "service.rtt_hit" : "service.rtt_miss",
                       t0, t1, parent, i);
        }
    };
    std::vector<std::thread> pool;
    for (unsigned c = 0; c < clients; ++c)
        pool.emplace_back(client);
    for (std::thread &t : pool)
        t.join();
    return replies;
}

/** Retired instructions in a result document (its "instructions" field). */
double
retiredInstructions(std::string_view result_json)
{
    const std::string_view needle = "\"instructions\":";
    const std::size_t at = result_json.find(needle);
    if (at == std::string_view::npos)
        return 0.0;
    return std::strtod(std::string(result_json.substr(at + needle.size(), 24))
                           .c_str(),
                       nullptr);
}

/** Check every reply; returns the retired instructions delivered. */
double
verifyReplies(Context &ctx, const Stream &stream,
              const std::vector<Reply> &replies)
{
    OpCounts &counts = ctx.report.counts;
    double instructions = 0.0;
    for (std::size_t i = 0; i < replies.size(); ++i) {
        const Reply &reply = replies[i];
        if (reply.status == 429) {
            ++counts.refused;
            continue;
        }
        const auto json = reply.status == 200
                              ? jsonObjectField(reply.body, "result")
                              : std::nullopt;
        if (!json) {
            ++counts.failed;
            ctx.report.problem("request " + std::to_string(i) + " failed: " +
                               std::to_string(reply.status) + " " +
                               reply.body.substr(0, 200));
            continue;
        }
        const bool ok = checkDigests(ctx, requestKey(stream.keys[i]), {}, *json);
        ++(ok ? counts.ok : counts.wrong);
        instructions += retiredInstructions(*json);
    }
    return instructions;
}

/** A started server with the stream's warm keys filled over HTTP. */
struct Filled
{
    std::unique_ptr<ServiceStack> stack;
    std::vector<Reply> fill;
};

/** Set-up: a fresh server and the warm keys filled over HTTP. */
Filled
startAndFill(const Stream &stream, unsigned clients)
{
    Filled f;
    f.stack = std::make_unique<ServiceStack>(clients, "");
    std::string error;
    if (!f.stack->start(error))
        throw std::runtime_error("server start: " + error);
    std::vector<std::string> bodies;
    for (const SimRequest &r : stream.warm)
        bodies.push_back(requestBody(r));
    f.fill = closedLoop(f.stack->port(), bodies, clients, 0);
    return f;
}

/** Check the warm fill's replies (after the timed phase). */
void
verifyFill(Context &ctx, const Stream &stream, const std::vector<Reply> &fill)
{
    for (std::size_t i = 0; i < fill.size(); ++i) {
        const auto json = fill[i].status == 200
                              ? jsonObjectField(fill[i].body, "result")
                              : std::nullopt;
        if (!json || !checkDigests(ctx, requestKey(stream.warm[i]), {}, *json))
            ctx.report.problem("warm fill of " + requestKey(stream.warm[i]) +
                               " failed or was wrong");
    }
}

/**
 * The server's per-request work driven by hand: a fresh direct engine
 * with the warm keys submitted first, then every request of the stream
 * parsed from its wire form, submitted and serialized, on as many
 * threads as there are clients. Returns each request's result JSON
 * (empty when a step failed), the root span and the timed seconds.
 */
struct Replay
{
    std::vector<std::string> jsons;
    std::uint64_t root_id = 0;
    double seconds = 0.0;
};

Replay
replayRound(const Stream &stream, const std::vector<std::string> &wire,
            unsigned clients)
{
    SpanRecorder &recorder = SpanRecorder::instance();
    sipre::service::SimulationEngine engine(engineOptions(clients));
    parallelFor(stream.warm.size(), clients, [&](std::size_t i) {
        engine.submit(stream.warm[i]);
    });
    Replay r;
    r.jsons.resize(wire.size());
    const double t0 = nowS();
    {
        ScopedSpan root("served.replay");
        r.root_id = root.id();
        parallelFor(wire.size(), clients, [&](std::size_t i) {
            ScopedSpan span("served.request", i, r.root_id);
            http::Request request;
            std::size_t consumed = 0;
            std::string error;
            {
                ScopedSpan parse("service.http_parse", i);
                if (http::parseRequest(wire[i], request, consumed, error) !=
                    http::ParseStatus::kOk)
                    return;
            }
            SimRequest sim_request;
            if (!sipre::service::parseSimRequest(request.body, sim_request,
                                                 error))
                return;
            const double s0 = recorder.nowUs();
            const sipre::service::SubmitOutcome outcome =
                engine.submit(sim_request);
            recordSpan(outcome.cache_hit ? "service.submit_hit"
                                         : "service.submit_miss",
                       s0, recorder.nowUs(), span.id(), i);
            if (outcome.status == sipre::service::SubmitStatus::kOk)
                r.jsons[i] = tracedJson(*outcome.result);
        });
    }
    r.seconds = nowS() - t0;
    engine.shutdown();
    return r;
}

/**
 * A hit and a fresh run of one key must be byte-identical: the first
 * warm key's cached reply against runSimRequest's result.
 */
void
checkHitMatchesFresh(Context &ctx, const Stream &stream,
                     const std::vector<Reply> &replies)
{
    for (std::size_t i = 0; i < replies.size(); ++i) {
        if (requestKey(stream.keys[i]) != requestKey(stream.warm[0]) ||
            !replies[i].cached)
            continue;
        const auto hit = jsonObjectField(replies[i].body, "result");
        const std::string fresh = sipre::simResultToJson(
            sipre::service::runSimRequest(stream.warm[0]));
        if (!hit || *hit != fresh)
            ctx.report.problem("cached reply differs from a fresh run for " +
                               requestKey(stream.warm[0]));
        return;
    }
    ctx.report.problem("no cached reply for the first warm key");
}

} // namespace

void
runServed(Context &ctx)
{
    const unsigned clients = benchThreads();
    if (!ctx.options.trace) {
        runRounds(ctx, [&](std::size_t index, RoundSample &round) {
            const Stream stream = makeStream(ctx.options.seed, index);
            const double t0 = nowS();
            Filled filled = startAndFill(stream, clients);
            const double t1 = nowS();
            const std::vector<Reply> replies =
                closedLoop(filled.stack->port(), stream.bodies, clients, 0);
            const double t2 = nowS();
            round.peak_rss_mb = peakRssMb();
            filled.stack->stop();
            round.setup_s = t1 - t0;
            round.wall_s = t2 - t1;
            verifyFill(ctx, stream, filled.fill);
            round.instructions = verifyReplies(ctx, stream, replies);
            for (const Reply &r : replies) {
                round.results += r.status == 200 ? 1.0 : 0.0;
                round.latencies_ms.push_back(r.rtt_ms);
            }
            if (index == 0)
                checkHitMatchesFresh(ctx, stream, replies);
        });
        return;
    }

    const Stream stream = makeStream(ctx.options.seed, 0);
    SpanRecorder &recorder = SpanRecorder::instance();
    LayerExtras extras;

    // The served round with a span per round trip, and the server's
    // counters scraped afterwards.
    std::vector<Reply> served;
    {
        Filled filled = startAndFill(stream, clients);
        recorder.enable(true);
        {
            ScopedSpan root("served.round");
            served = closedLoop(filled.stack->port(), stream.bodies, clients,
                                root.id());
        }
        recorder.enable(false);
        HttpConn conn(filled.stack->port());
        http::Response response;
        std::string error;
        if (!conn.exchange("GET", "/metrics", "", response, error) ||
            response.status != 200)
            throw std::runtime_error("GET /metrics failed: " + error);
        filled.stack->stop();
        verifyFill(ctx, stream, filled.fill);
        verifyReplies(ctx, stream, served);
        extras.hit_ratio = scrapeMetric(response.body, "sipre_cache_hit_rate");
        extras.coalesced = scrapeMetric(response.body, "sipre_coalesced_total");
        extras.rejected = scrapeMetric(response.body, "sipre_rejected_total");
        extras.sim_runs = scrapeMetric(response.body, "sipre_sim_runs_total");
    }

    // The decomposed round against a direct engine, with spans off and
    // then on: the tracing overhead is the difference between the two,
    // and both must return the served results.
    std::vector<std::string> wire(stream.bodies.size());
    for (std::size_t i = 0; i < wire.size(); ++i) {
        http::Request request;
        request.method = "POST";
        request.target = "/simulate";
        request.headers.emplace_back("Host", "127.0.0.1");
        request.headers.emplace_back("Content-Type", "application/json");
        request.body = stream.bodies[i];
        wire[i] = http::serializeRequest(request);
    }
    std::vector<int> matches(wire.size(), 1);
    Replay replay;
    for (const bool traced : {false, true}) {
        recorder.enable(traced);
        replay = replayRound(stream, wire, clients);
        recorder.enable(false);
        (traced ? extras.traced_s : extras.untraced_s) = replay.seconds;
        for (std::size_t i = 0; i < wire.size(); ++i) {
            const auto served_json = jsonObjectField(served[i].body, "result");
            if (!served_json || *served_json != replay.jsons[i])
                matches[i] = 0;
        }
    }

    // The cold keys once more, through trace generation and the
    // simulator directly.
    std::vector<std::size_t> cold;
    for (std::size_t i = 0; i < stream.cold.size(); ++i) {
        if (stream.cold[i])
            cold.push_back(i);
    }
    recorder.enable(true);
    parallelFor(cold.size(), clients, [&](std::size_t c) {
        const std::size_t i = cold[c];
        const std::string text = resultText(handDriven(stream.keys[i]));
        const auto served_json = jsonObjectField(served[i].body, "result");
        if (!checkDigests(ctx, requestKey(stream.keys[i]), text,
                          served_json.value_or(std::string_view())))
            matches[i] = 0;
    });
    recorder.enable(false);
    for (std::size_t i = 0; i < matches.size(); ++i) {
        if (!matches[i]) {
            ++ctx.report.counts.wrong;
            ctx.report.problem("direct replay of request " +
                               std::to_string(i) +
                               " differs from the served result");
        } else {
            ++ctx.report.counts.ok;
        }
    }
    emitLayerMetrics(ctx.report, recorder.spans(), replay.root_id, extras);
}

void
goldenServed(GoldenTable &golden, unsigned threads)
{
    addRequestDigests(golden, keySpace(), threads);
}

} // namespace perfbench
