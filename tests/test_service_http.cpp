/**
 * @file
 * HTTP layer tests: the hand-rolled parser round-trips and rejects
 * malformed input, routing returns structured errors, and a real
 * loopback server serves /simulate with a bit-identical result body,
 * answers repeats from cache, coalesces concurrent duplicates, applies
 * 429 backpressure, and reports it all through /healthz and /metrics.
 */
#include <atomic>
#include <chrono>
#include <latch>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/json_io.hpp"
#include "core/simulator.hpp"
#include "service/engine.hpp"
#include "service/http.hpp"
#include "service/server.hpp"
#include "trace/synth/workload.hpp"

using namespace sipre;
using namespace sipre::service;

namespace
{

std::string
simulateBody(const std::string &workload, std::uint32_t ftq,
             std::uint64_t instructions = 30'000)
{
    return "{\"workload\":\"" + workload +
           "\",\"instructions\":" + std::to_string(instructions) +
           ",\"ftq\":" + std::to_string(ftq) + "}";
}

http::Request
postSimulate(std::string body)
{
    http::Request request;
    request.method = "POST";
    request.target = "/simulate";
    request.headers.emplace_back("Content-Type", "application/json");
    request.body = std::move(body);
    return request;
}

/** One-shot client: dial, round-trip a single request, close. */
http::Response
call(std::uint16_t port, const http::Request &request)
{
    std::string error;
    const int fd = http::dialTcp("127.0.0.1", port, &error);
    EXPECT_GE(fd, 0) << error;
    http::Response response;
    if (fd >= 0) {
        EXPECT_TRUE(http::roundTrip(fd, request, response, &error))
            << error;
        ::close(fd);
    }
    return response;
}

http::Request
get(const std::string &target)
{
    http::Request request;
    request.target = target;
    return request;
}

/** Extract the value of `name` from Prometheus-style metrics text. */
std::uint64_t
metricValue(const std::string &metrics, const std::string &name)
{
    const std::string needle = "\n" + name + " ";
    const std::size_t pos = metrics.find(needle);
    EXPECT_NE(pos, std::string::npos) << name << " missing";
    if (pos == std::string::npos)
        return ~0ull;
    return std::stoull(metrics.substr(pos + needle.size()));
}

/**
 * The first exposition-format grouping violation in a scrape, or "":
 * every sample must belong to the family of the most recent `# TYPE`
 * line (a summary or histogram may add _count/_sum/_bucket), and no
 * family may be declared twice.
 */
std::string
familyGroupingViolation(const std::string &metrics)
{
    std::set<std::string> declared;
    std::string family;
    std::string type;
    std::istringstream lines(metrics);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("# TYPE ", 0) == 0) {
            std::istringstream fields(line.substr(7));
            fields >> family >> type;
            if (!declared.insert(family).second)
                return "family declared twice: " + family;
            continue;
        }
        if (line.empty() || line[0] == '#')
            continue;
        const std::string name = line.substr(0, line.find_first_of("{ "));
        bool ok = name == family;
        if (type == "summary" || type == "histogram") {
            for (const char *suffix : {"_count", "_sum", "_bucket"})
                ok = ok || name == family + suffix;
        }
        if (!ok)
            return "sample " + name + " under # TYPE " + family;
    }
    return "";
}

} // namespace

// ------------------------------------------------------- parser units

TEST(ServiceHttp, RequestSerializeParseRoundTrip)
{
    http::Request request = postSimulate("{\"x\":1}");
    request.headers.emplace_back("X-Extra", "v");
    const std::string wire = http::serializeRequest(request);

    http::Request parsed;
    std::size_t consumed = 0;
    std::string error;
    ASSERT_EQ(http::parseRequest(wire, parsed, consumed, error),
              http::ParseStatus::kOk)
        << error;
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(parsed.method, "POST");
    EXPECT_EQ(parsed.target, "/simulate");
    EXPECT_EQ(parsed.version, "HTTP/1.1");
    EXPECT_EQ(parsed.body, "{\"x\":1}");
    // Header lookup is case-insensitive.
    ASSERT_NE(parsed.header("x-extra"), nullptr);
    EXPECT_EQ(*parsed.header("X-EXTRA"), "v");
    ASSERT_NE(parsed.header("content-length"), nullptr);
    EXPECT_EQ(*parsed.header("Content-Length"), "7");
}

// The three /metrics latency summaries (engine requests, job shards,
// cluster proxy hops) share one writer. perfbench scrapes them, so
// their text is pinned byte for byte.
TEST(ServiceHttp, LatencySummaryTextIsPinned)
{
    LatencySummary summary;
    EXPECT_EQ(http::prometheusSummary("sipre_request_latency_us",
                                      summary.snapshot()),
              "# TYPE sipre_request_latency_us summary\n"
              "sipre_request_latency_us_count 0\n"
              "sipre_request_latency_us_sum 0\n"
              "sipre_request_latency_us{quantile=\"0.5\"} 0\n"
              "sipre_request_latency_us{quantile=\"0.9\"} 0\n"
              "sipre_request_latency_us{quantile=\"0.99\"} 0\n");

    for (const double us : {3.0, 150.5, 2000.25, 70000.0})
        summary.add(us);
    EXPECT_EQ(summary.mean(), 72153.75 / 4);
    EXPECT_EQ(http::prometheusSummary("sipre_request_latency_us",
                                      summary.snapshot()),
              "# TYPE sipre_request_latency_us summary\n"
              "sipre_request_latency_us_count 4\n"
              "sipre_request_latency_us_sum 72153.75\n"
              "sipre_request_latency_us{quantile=\"0.5\"} 255\n"
              "sipre_request_latency_us{quantile=\"0.9\"} 131071\n"
              "sipre_request_latency_us{quantile=\"0.99\"} 131071\n");
    EXPECT_EQ(http::prometheusSummary("sipre_job_shard_latency_us",
                                      summary.snapshot()),
              "# TYPE sipre_job_shard_latency_us summary\n"
              "sipre_job_shard_latency_us_count 4\n"
              "sipre_job_shard_latency_us_sum 72153.75\n"
              "sipre_job_shard_latency_us{quantile=\"0.5\"} 255\n"
              "sipre_job_shard_latency_us{quantile=\"0.9\"} 131071\n"
              "sipre_job_shard_latency_us{quantile=\"0.99\"} 131071\n");
    EXPECT_EQ(http::prometheusSummary("sipre_cluster_proxy_latency_us",
                                      summary.snapshot()),
              "# TYPE sipre_cluster_proxy_latency_us summary\n"
              "sipre_cluster_proxy_latency_us_count 4\n"
              "sipre_cluster_proxy_latency_us_sum 72153.75\n"
              "sipre_cluster_proxy_latency_us{quantile=\"0.5\"} 255\n"
              "sipre_cluster_proxy_latency_us{quantile=\"0.9\"} 131071\n"
              "sipre_cluster_proxy_latency_us{quantile=\"0.99\"} "
              "131071\n");
}

TEST(ServiceHttp, ParserIsIncremental)
{
    const std::string wire = http::serializeRequest(postSimulate("{}"));
    http::Request parsed;
    std::size_t consumed = 0;
    std::string error;
    // Every strict prefix needs more bytes; the full buffer parses.
    for (std::size_t cut = 0; cut < wire.size(); ++cut)
        ASSERT_EQ(http::parseRequest(wire.substr(0, cut), parsed,
                                     consumed, error),
                  http::ParseStatus::kNeedMore)
            << "prefix length " << cut;
    EXPECT_EQ(http::parseRequest(wire, parsed, consumed, error),
              http::ParseStatus::kOk);

    // Two pipelined requests: the first parse consumes only the first.
    const std::string two = wire + wire;
    EXPECT_EQ(http::parseRequest(two, parsed, consumed, error),
              http::ParseStatus::kOk);
    EXPECT_EQ(consumed, wire.size());
}

TEST(ServiceHttp, ParserRejectsMalformedInput)
{
    http::Request parsed;
    std::size_t consumed = 0;
    std::string error;
    EXPECT_EQ(http::parseRequest("not http at all\r\n\r\n", parsed,
                                 consumed, error),
              http::ParseStatus::kBad);
    EXPECT_EQ(http::parseRequest(
                  "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
                  parsed, consumed, error),
              http::ParseStatus::kBad);
    // Over-limit declared body.
    EXPECT_EQ(http::parseRequest("POST / HTTP/1.1\r\nContent-Length: " +
                                     std::to_string(
                                         http::kMaxBodyBytes + 1) +
                                     "\r\n\r\n",
                                 parsed, consumed, error),
              http::ParseStatus::kBad);
}

TEST(ServiceHttp, ResponseSerializeParseRoundTrip)
{
    http::Response response;
    response.status = 429;
    response.headers.emplace_back("Retry-After", "1");
    response.body = "{\"status\":\"rejected\"}";
    const std::string wire = http::serializeResponse(response);
    EXPECT_NE(wire.find("429"), std::string::npos);

    http::Response parsed;
    std::size_t consumed = 0;
    std::string error;
    ASSERT_EQ(http::parseResponse(wire, parsed, consumed, error),
              http::ParseStatus::kOk)
        << error;
    EXPECT_EQ(parsed.status, 429);
    EXPECT_EQ(parsed.body, response.body);
    ASSERT_NE(parsed.header("retry-after"), nullptr);
    EXPECT_EQ(*parsed.header("retry-after"), "1");
}

TEST(ServiceHttp, HeaderTokensAreCaseInsensitive)
{
    EXPECT_TRUE(http::iequals("Connection", "connection"));
    EXPECT_FALSE(http::iequals("Connection", "Connectio"));
    // RFC 9110 list syntax: any casing, optional whitespace, multiple
    // comma-separated options.
    EXPECT_TRUE(http::headerHasToken("close", "close"));
    EXPECT_TRUE(http::headerHasToken("Close", "close"));
    EXPECT_TRUE(http::headerHasToken("keep-alive, Close", "close"));
    EXPECT_TRUE(http::headerHasToken(" CLOSE ", "close"));
    EXPECT_FALSE(http::headerHasToken("keep-alive", "close"));
    EXPECT_FALSE(http::headerHasToken("closed", "close"));
    EXPECT_FALSE(http::headerHasToken("", "close"));
}

// ---------------------------------------------------- routing (direct)

TEST(ServiceHttp, DispatchReturnsStructuredErrors)
{
    SimulationEngine engine(EngineOptions{});
    ServiceServer server(engine, ServerOptions{});

    EXPECT_EQ(server.dispatch(get("/nope")).status, 404);
    EXPECT_EQ(server.dispatch(get("/simulate")).status, 405);
    http::Request post_metrics;
    post_metrics.method = "POST";
    post_metrics.target = "/metrics";
    EXPECT_EQ(server.dispatch(post_metrics).status, 405);

    const http::Response bad_json =
        server.dispatch(postSimulate("{not json"));
    EXPECT_EQ(bad_json.status, 400);
    EXPECT_NE(bad_json.body.find("\"status\":\"error\""),
              std::string::npos);

    const http::Response bad_workload = server.dispatch(
        postSimulate(R"({"workload":"nope_wl"})"));
    EXPECT_EQ(bad_workload.status, 400);
    EXPECT_NE(bad_workload.body.find("unknown workload"),
              std::string::npos);
}

TEST(ServiceHttp, WrongMethodCarriesAllowHeaderAndCountsRejected)
{
    SimulationEngine engine(EngineOptions{});
    ServiceServer server(engine, ServerOptions{});

    const http::Response on_simulate = server.dispatch(get("/simulate"));
    EXPECT_EQ(on_simulate.status, 405);
    ASSERT_NE(on_simulate.header("Allow"), nullptr);
    EXPECT_EQ(*on_simulate.header("Allow"), "POST");

    http::Request post_health;
    post_health.method = "POST";
    post_health.target = "/healthz";
    const http::Response on_health = server.dispatch(post_health);
    EXPECT_EQ(on_health.status, 405);
    ASSERT_NE(on_health.header("Allow"), nullptr);
    EXPECT_EQ(*on_health.header("Allow"), "GET");

    EXPECT_EQ(server.dispatch(get("/nope")).status, 404);

    // Two 405s and one 404 so far.
    EXPECT_EQ(server.requestsRejected(), 3u);
    const http::Response metrics = server.dispatch(get("/metrics"));
    ASSERT_EQ(metrics.status, 200);
    EXPECT_EQ(
        metricValue(metrics.body, "sipre_requests_rejected_total"), 3u);
}

TEST(ServiceHttp, DrainSplitsLivenessFromReadiness)
{
    SimulationEngine engine(EngineOptions{});
    ServiceServer server(engine, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const http::Response healthy = call(server.port(), get("/healthz"));
    EXPECT_EQ(healthy.status, 200);
    EXPECT_NE(healthy.body.find("\"status\":\"ok\""), std::string::npos);
    const http::Response ready = call(server.port(), get("/readyz"));
    EXPECT_EQ(ready.status, 200);
    EXPECT_NE(ready.body.find("\"status\":\"ready\""),
              std::string::npos);
    // /healthz?ready=1 is the same readiness check for probers that
    // can only hit one path.
    EXPECT_EQ(call(server.port(), get("/healthz?ready=1")).status, 200);

    // Once draining, readiness flips to 503 with a machine-readable
    // reason (a load balancer stops routing here) while liveness stays
    // 200 — the process is healthy, just on its way out, and must not
    // be restarted by a liveness supervisor.
    server.beginDrain();
    const http::Response live = call(server.port(), get("/healthz"));
    EXPECT_EQ(live.status, 200);
    EXPECT_NE(live.body.find("\"status\":\"draining\""),
              std::string::npos);
    const http::Response not_ready =
        call(server.port(), get("/readyz"));
    EXPECT_EQ(not_ready.status, 503);
    EXPECT_NE(not_ready.body.find("\"status\":\"not_ready\""),
              std::string::npos);
    EXPECT_NE(not_ready.body.find("\"reason\":\"draining\""),
              std::string::npos);
    EXPECT_EQ(call(server.port(), get("/healthz?ready=1")).status, 503);

    // Other routes still answer normally while draining.
    EXPECT_EQ(call(server.port(), get("/metrics")).status, 200);

    server.shutdown();
}

TEST(ServiceHttp, ReadinessProbeHookReportsReasonWhileLive)
{
    SimulationEngine engine(EngineOptions{});
    ServiceServer server(engine, ServerOptions{});
    std::atomic<bool> degraded{false};
    server.setReadinessProbe([&]() -> std::optional<std::string> {
        if (degraded.load())
            return "peer-degraded";
        return std::nullopt;
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    EXPECT_EQ(call(server.port(), get("/readyz")).status, 200);

    degraded.store(true);
    const http::Response not_ready =
        call(server.port(), get("/readyz"));
    EXPECT_EQ(not_ready.status, 503);
    EXPECT_NE(not_ready.body.find("\"reason\":\"peer-degraded\""),
              std::string::npos);
    // Degraded is not dead: liveness and real work keep answering.
    EXPECT_EQ(call(server.port(), get("/healthz")).status, 200);

    degraded.store(false);
    EXPECT_EQ(call(server.port(), get("/readyz")).status, 200);

    server.shutdown();
}

// ------------------------------------------------------- loopback e2e

TEST(ServiceHttp, LoopbackColdIsBitIdenticalAndRepeatIsCached)
{
    EngineOptions engine_options;
    engine_options.workers = 2;
    SimulationEngine engine(engine_options);
    ServiceServer server(engine, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Cold request: the body embeds the exact serialization of the
    // result a direct Simulator run produces.
    const http::Response cold = call(
        server.port(), postSimulate(simulateBody("secret_crypto52", 4)));
    ASSERT_EQ(cold.status, 200);
    EXPECT_NE(cold.body.find("\"cached\":false"), std::string::npos);

    SimRequest request;
    std::string parse_error;
    ASSERT_TRUE(parseSimRequest(simulateBody("secret_crypto52", 4),
                                request, parse_error));
    const auto suite = synth::cvp1LikeSuite();
    const synth::WorkloadSpec *spec = nullptr;
    for (const auto &s : suite) {
        if (s.name == request.workload)
            spec = &s;
    }
    ASSERT_NE(spec, nullptr);
    const Trace trace =
        synth::generateTrace(*spec, request.instructions);
    Simulator sim(request.toConfig(), trace);
    const std::string direct_json = simResultToJson(sim.run());
    EXPECT_NE(cold.body.find(",\"result\":" + direct_json + "}"),
              std::string::npos)
        << "served result is not bit-identical to the direct run";

    // Repeat: same bytes back, served from cache, no second simulation.
    const http::Response warm = call(
        server.port(), postSimulate(simulateBody("secret_crypto52", 4)));
    ASSERT_EQ(warm.status, 200);
    EXPECT_NE(warm.body.find("\"cached\":true"), std::string::npos);
    EXPECT_NE(warm.body.find(",\"result\":" + direct_json + "}"),
              std::string::npos);

    const http::Response health =
        call(server.port(), get("/healthz"));
    EXPECT_EQ(health.status, 200);
    EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);

    const http::Response metrics =
        call(server.port(), get("/metrics"));
    ASSERT_EQ(metrics.status, 200);
    EXPECT_EQ(metricValue(metrics.body, "sipre_requests_total"), 2u);
    EXPECT_EQ(metricValue(metrics.body, "sipre_sim_runs_total"), 1u);
    EXPECT_EQ(metricValue(metrics.body, "sipre_cache_hits_total"), 1u);
    EXPECT_EQ(
        metricValue(metrics.body, "sipre_request_latency_us_count"), 2u);

    server.shutdown();
}

TEST(ServiceHttp, MulticoreRequestCarriesSharedStateAndMetrics)
{
    EngineOptions engine_options;
    engine_options.workers = 2;
    SimulationEngine engine(engine_options);
    ServiceServer server(engine, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Before any multi-core run the contention family is absent — a
    // single-core deployment keeps a clean scrape.
    const http::Response before =
        call(server.port(), get("/metrics"));
    ASSERT_EQ(before.status, 200);
    EXPECT_EQ(before.body.find("sipre_multicore_runs_total"),
              std::string::npos);

    // A heterogeneous 2-core mix comes back with the shared-memory
    // section and per-core results in the JSON.
    const http::Response mixed = call(
        server.port(),
        postSimulate(R"({"mix":["secret_srv12","secret_int_124"],)"
                     R"("instructions":30000})"));
    ASSERT_EQ(mixed.status, 200);
    EXPECT_NE(mixed.body.find("\"cores\":2"), std::string::npos);
    EXPECT_NE(mixed.body.find("\"shared_mem\""), std::string::npos);
    EXPECT_NE(mixed.body.find("\"core_results\""), std::string::npos);

    // The run fed the contention metrics: one multi-core run, LLC
    // demand attributed to both cores, and a sampled DRAM-occupancy
    // distribution.
    const http::Response metrics =
        call(server.port(), get("/metrics"));
    ASSERT_EQ(metrics.status, 200);
    EXPECT_EQ(metricValue(metrics.body, "sipre_multicore_runs_total"),
              1u);
    for (const char *core : {"0", "1"}) {
        const std::string hit =
            "sipre_multicore_llc_demand_total{core=\"" +
            std::string(core) + "\",outcome=\"hit\"}";
        EXPECT_NE(metrics.body.find(hit), std::string::npos) << hit;
    }
    EXPECT_GT(metricValue(metrics.body,
                          "sipre_multicore_dram_queue_depth_count"),
              0u);

    // A cache hit on the same mix does not inflate the counters.
    const http::Response warm = call(
        server.port(),
        postSimulate(R"({"mix":["secret_srv12","secret_int_124"],)"
                     R"("instructions":30000})"));
    ASSERT_EQ(warm.status, 200);
    EXPECT_NE(warm.body.find("\"cached\":true"), std::string::npos);
    const http::Response after =
        call(server.port(), get("/metrics"));
    EXPECT_EQ(metricValue(after.body, "sipre_multicore_runs_total"), 1u);

    server.shutdown();
}

TEST(ServiceHttp, MetricsFamiliesAreContiguousUnderTheirType)
{
    EngineOptions engine_options;
    engine_options.workers = 2;
    SimulationEngine engine(engine_options);
    ServiceServer server(engine, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Fill every conditional section: hwpf, AsmDB providers, co-runs.
    for (const char *body :
         {R"({"workload":"secret_srv12","instructions":30000,)"
          R"("hw_prefetcher":"fdip"})",
          R"({"workload":"secret_srv12","instructions":30000,)"
          R"("mode":"asmdb"})",
          R"({"workload":"secret_srv12","instructions":30000,"cores":2})"}) {
        ASSERT_EQ(call(server.port(), postSimulate(body)).status, 200)
            << body;
    }
    const http::Response metrics = call(server.port(), get("/metrics"));
    ASSERT_EQ(metrics.status, 200);
    for (const char *sample :
         {"sipre_hwpf_deferred_total{component=\"fdip\"}",
          "sipre_hwpf_demoted_fills_total{component=\"fdip\"}",
          "sipre_asmdb_provider_runs_total{provider=\"static\"}",
          "sipre_multicore_runs_total"}) {
        EXPECT_NE(metrics.body.find(sample), std::string::npos) << sample;
    }
    EXPECT_EQ(familyGroupingViolation(metrics.body), "") << metrics.body;

    server.shutdown();
}

TEST(ServiceHttp, LoopbackConcurrentDuplicatesRunOneSimulation)
{
    EngineOptions engine_options;
    engine_options.workers = 1;
    SimulationEngine engine(engine_options);
    ServerOptions server_options;
    server_options.connection_threads = 8;
    ServiceServer server(engine, server_options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    constexpr int kClients = 6;
    const std::string body =
        simulateBody("secret_srv12", 24, 400'000);
    std::latch ready(kClients);
    std::vector<http::Response> responses(kClients);
    std::vector<std::thread> pool;
    pool.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
        pool.emplace_back([&, t] {
            ready.arrive_and_wait();
            responses[t] = call(server.port(), postSimulate(body));
        });
    }
    for (auto &thread : pool)
        thread.join();

    for (const auto &response : responses) {
        ASSERT_EQ(response.status, 200);
        EXPECT_NE(response.body.find("\"status\":\"ok\""),
                  std::string::npos);
    }
    const http::Response metrics =
        call(server.port(), get("/metrics"));
    ASSERT_EQ(metrics.status, 200);
    // Exactly one simulation; every other client either attached to
    // the in-flight run or (if it arrived after completion) hit the
    // LRU. Either way, no duplicate work.
    EXPECT_EQ(metricValue(metrics.body, "sipre_sim_runs_total"), 1u);
    EXPECT_EQ(metricValue(metrics.body, "sipre_coalesced_total") +
                  metricValue(metrics.body, "sipre_cache_hits_total"),
              static_cast<std::uint64_t>(kClients - 1));

    server.shutdown();
}

TEST(ServiceHttp, LoopbackConnectionCloseIsHonoredCaseInsensitively)
{
    SimulationEngine engine(EngineOptions{});
    ServiceServer server(engine, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const int fd = http::dialTcp("127.0.0.1", server.port(), &error);
    ASSERT_GE(fd, 0) << error;
    http::Request request = get("/healthz");
    request.headers.emplace_back("Connection", "Close");
    http::Response response;
    ASSERT_TRUE(http::roundTrip(fd, request, response, &error)) << error;
    EXPECT_EQ(response.status, 200);
    ASSERT_NE(response.header("Connection"), nullptr);
    EXPECT_EQ(*response.header("Connection"), "close");
    // The server must actually close; a client waiting for the
    // connection to end would otherwise stall.
    char byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);
    server.shutdown();
}

TEST(ServiceHttp, ShutdownUnblocksIdleKeepAliveConnections)
{
    SimulationEngine engine(EngineOptions{});
    ServiceServer server(engine, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // An idle keep-alive client (a metrics scraper between scrapes, or
    // the bench client): one request, then the connection stays open
    // with a connection thread blocked in recv().
    const int fd = http::dialTcp("127.0.0.1", server.port(), &error);
    ASSERT_GE(fd, 0) << error;
    http::Response response;
    ASSERT_TRUE(http::roundTrip(fd, get("/healthz"), response, &error))
        << error;
    EXPECT_EQ(response.status, 200);

    // shutdown() joins the connection threads; the regression was a
    // permanent hang here because nothing woke the blocked recv().
    std::atomic<bool> done{false};
    std::thread closer([&] {
        server.shutdown();
        done.store(true);
    });
    for (int i = 0; i < 500 && !done.load(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(done.load())
        << "shutdown() hung on an idle keep-alive connection";
    // The client sees the server-side close.
    char byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);
    closer.join();
}

TEST(ServiceHttp, LoopbackBackpressureReturns429)
{
    EngineOptions engine_options;
    engine_options.workers = 1;
    engine_options.queue_capacity = 1;
    SimulationEngine engine(engine_options);
    ServerOptions server_options;
    server_options.connection_threads = 8;
    ServiceServer server(engine, server_options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Six concurrent *distinct* slow requests against one worker and a
    // one-slot queue: at most two can be accepted at any instant, so at
    // least one client must see backpressure; accepted ones complete.
    constexpr int kClients = 6;
    std::latch ready(kClients);
    std::vector<http::Response> responses(kClients);
    std::vector<std::thread> pool;
    pool.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
        pool.emplace_back([&, t] {
            ready.arrive_and_wait();
            responses[t] = call(
                server.port(),
                postSimulate(simulateBody(
                    "secret_crypto52",
                    4 + 2 * static_cast<std::uint32_t>(t), 200'000)));
        });
    }
    for (auto &thread : pool)
        thread.join();

    int ok = 0;
    int rejected = 0;
    for (const auto &response : responses) {
        if (response.status == 200) {
            ++ok;
        } else {
            ASSERT_EQ(response.status, 429);
            EXPECT_NE(response.body.find("\"status\":\"rejected\""),
                      std::string::npos);
            ASSERT_NE(response.header("Retry-After"), nullptr);
            ++rejected;
        }
    }
    EXPECT_EQ(ok + rejected, kClients);
    EXPECT_GE(rejected, 1);
    EXPECT_GE(ok, 1);

    const http::Response metrics =
        call(server.port(), get("/metrics"));
    ASSERT_EQ(metrics.status, 200);
    EXPECT_EQ(metricValue(metrics.body, "sipre_rejected_total"),
              static_cast<std::uint64_t>(rejected));

    server.shutdown();
}
