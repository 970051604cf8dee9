/**
 * @file
 * End-to-end tests of the async job endpoints over a real loopback
 * server: submit -> monotonic progress -> aggregated results that are
 * bit-identical to direct Simulator runs; a daemon "restart"
 * (tear down server+manager+engine, rebuild over the same store) that
 * finishes a half-done job without re-simulating completed shards;
 * routing (404/405 with Allow) and the sipre_jobs_* metrics family.
 */
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/json_io.hpp"
#include "core/simulator.hpp"
#include "jobs/http.hpp"
#include "jobs/manager.hpp"
#include "service/engine.hpp"
#include "service/http.hpp"
#include "service/server.hpp"
#include "trace/synth/workload.hpp"

using namespace sipre;
using namespace sipre::service;
using namespace sipre::jobs;

namespace
{

struct TempDir
{
    std::string path;

    TempDir()
    {
        char name[] = "/tmp/sipre_jobs_http_XXXXXX";
        path = ::mkdtemp(name);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
};

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

http::Request
postJobs(std::string body)
{
    http::Request request;
    request.method = "POST";
    request.target = "/jobs";
    request.headers.emplace_back("Content-Type", "application/json");
    request.body = std::move(body);
    return request;
}

/** Extract "field":N from a JSON body (test-grade, fields are unique). */
std::uint64_t
jsonField(const std::string &body, const std::string &field)
{
    const std::string needle = "\"" + field + "\":";
    const std::size_t pos = body.find(needle);
    EXPECT_NE(pos, std::string::npos) << field << " missing in " << body;
    if (pos == std::string::npos)
        return ~0ull;
    return std::stoull(body.substr(pos + needle.size()));
}

std::string
jsonStringField(const std::string &body, const std::string &field)
{
    const std::string needle = "\"" + field + "\":\"";
    const std::size_t pos = body.find(needle);
    EXPECT_NE(pos, std::string::npos) << field << " missing in " << body;
    if (pos == std::string::npos)
        return "";
    const std::size_t start = pos + needle.size();
    return body.substr(start, body.find('"', start) - start);
}

/** The serialized result of a direct (in-process) Simulator run. */
std::string
directResultJson(const SimRequest &request)
{
    const auto suite = synth::cvp1LikeSuite();
    const synth::WorkloadSpec *spec = nullptr;
    for (const auto &s : suite) {
        if (s.name == request.workload)
            spec = &s;
    }
    EXPECT_NE(spec, nullptr);
    const Trace trace =
        synth::generateTrace(*spec, request.instructions);
    Simulator sim(request.toConfig(), trace);
    return simResultToJson(sim.run());
}

/** An engine + manager + server stack a test can tear down and
 *  rebuild, as a daemon restart does. */
struct Stack
{
    SimulationEngine engine;
    JobManager manager;
    JobHttpHandler handler;
    ServiceServer server;

    Stack(const EngineOptions &engine_options,
          const JobManagerOptions &job_options)
        : engine(engine_options), manager(engine, job_options),
          handler(manager), server(engine, ServerOptions{})
    {
        server.addHandler([this](const http::Request &request) {
            return handler.handle(request);
        });
        server.addMetricsProvider(
            [this] { return handler.metricsText(); });
        std::string error;
        EXPECT_TRUE(server.start(&error)) << error;
    }

    ~Stack()
    {
        server.beginDrain();
        manager.shutdown();
        server.shutdown(/*drain_engine=*/true);
    }
};

/** Poll GET /jobs/<id> until terminal, asserting monotonic progress. */
std::string
awaitJobOverHttp(std::uint16_t port, std::uint64_t id,
                 int timeout_s = 180)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(timeout_s);
    std::uint64_t last_done = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        const http::Response response =
            call(port, get("/jobs/" + std::to_string(id)));
        EXPECT_EQ(response.status, 200);
        const std::uint64_t done =
            jsonField(response.body, "shards_done");
        EXPECT_GE(done, last_done) << "progress went backwards";
        last_done = done;
        const std::string state =
            jsonStringField(response.body, "state");
        if (state == "completed" || state == "failed" ||
            state == "cancelled")
            return state;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "job " << id << " did not finish over HTTP";
    return "";
}

} // namespace

TEST(JobsHttp, SubmitWatchFetchIsBitIdenticalToDirectRuns)
{
    TempDir dir;
    EngineOptions engine_options;
    engine_options.workers = 2;
    JobManagerOptions job_options;
    job_options.store_dir = dir.path;
    job_options.shard_workers = 2;
    Stack stack(engine_options, job_options);
    const std::uint16_t port = stack.server.port();

    const http::Response accepted = call(
        port, postJobs(R"({"workloads":["secret_crypto52"],)"
                       R"("ftq":[4,6],"instructions":30000})"));
    ASSERT_EQ(accepted.status, 202);
    const std::uint64_t id = jsonField(accepted.body, "id");
    EXPECT_EQ(jsonField(accepted.body, "shards"), 2u);
    EXPECT_NE(accepted.body.find("\"spec\":{"), std::string::npos);

    EXPECT_EQ(awaitJobOverHttp(port, id), "completed");

    // The job list shows it terminal.
    const http::Response listed = call(port, get("/jobs"));
    ASSERT_EQ(listed.status, 200);
    EXPECT_NE(listed.body.find("\"state\":\"completed\""),
              std::string::npos);

    // Aggregated results embed the exact serialization a direct
    // Simulator run produces, per shard.
    const http::Response fetched =
        call(port, get("/jobs/" + std::to_string(id) + "/result"));
    ASSERT_EQ(fetched.status, 200);
    EXPECT_NE(fetched.body.find("\"state\":\"completed\""),
              std::string::npos);
    for (const std::uint32_t ftq : {4u, 6u}) {
        SimRequest request;
        request.workload = "secret_crypto52";
        request.instructions = 30'000;
        request.ftq_entries = ftq;
        EXPECT_NE(
            fetched.body.find(",\"result\":" + directResultJson(request)),
            std::string::npos)
            << "shard ftq=" << ftq
            << " is not bit-identical to the direct run";
    }

    // Metrics surface the job family alongside the engine's.
    const http::Response metrics = call(port, get("/metrics"));
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("sipre_jobs_submitted_total 1"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("sipre_jobs_completed_total 1"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("sipre_job_shards_done_total 2"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("sipre_jobs_active 0"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("sipre_job_shard_latency_us_count 2"),
              std::string::npos);
}

TEST(JobsHttp, RoutingErrorsAreSpecific)
{
    TempDir dir;
    JobManagerOptions job_options;
    job_options.store_dir = dir.path;
    job_options.shard_workers = 0;
    Stack stack(EngineOptions{}, job_options);
    const std::uint16_t port = stack.server.port();

    // Unknown id and malformed id are 404s.
    EXPECT_EQ(call(port, get("/jobs/42")).status, 404);
    EXPECT_EQ(call(port, get("/jobs/nope")).status, 404);
    EXPECT_EQ(call(port, get("/jobs/1/nope")).status, 404);

    // Wrong method carries the Allow header.
    http::Request put;
    put.method = "PUT";
    put.target = "/jobs";
    const http::Response not_allowed = call(port, put);
    EXPECT_EQ(not_allowed.status, 405);
    ASSERT_NE(not_allowed.header("Allow"), nullptr);
    EXPECT_EQ(*not_allowed.header("Allow"), "GET, POST");

    http::Request post_result;
    post_result.method = "POST";
    post_result.target = "/jobs/1/result";
    const http::Response bad_result = call(port, post_result);
    EXPECT_EQ(bad_result.status, 405);
    ASSERT_NE(bad_result.header("Allow"), nullptr);
    EXPECT_EQ(*bad_result.header("Allow"), "GET");

    // Bad specs are 400 with the parser's message.
    const http::Response bad =
        call(port, postJobs(R"({"workloads":["nope_wl"]})"));
    EXPECT_EQ(bad.status, 400);
    EXPECT_NE(bad.body.find("unknown workload"), std::string::npos);

    // A cores axis that inflates past the shard cap is a structured
    // 400 naming the limit, not a silently truncated job: 48 workloads
    // x 8 core counts x 2 ftq x 5 modes x 2 pfc = 7680 > 4096.
    const http::Response capped = call(
        port,
        postJobs(
            R"({"workloads":"all","cores":[1,2,3,4,5,6,7,8],)"
            R"("ftq":[2,24],)"
            R"("mode":["base","asmdb","noovh","metadata","feedback"],)"
            R"("pfc":[true,false]})"));
    EXPECT_EQ(capped.status, 400);
    EXPECT_NE(capped.body.find("\"error\""), std::string::npos);
    EXPECT_NE(capped.body.find("limit"), std::string::npos);
    EXPECT_NE(capped.body.find("4096"), std::string::npos);

    // Mix conflicts surface through HTTP with the parser's message too.
    const http::Response conflicted = call(
        port, postJobs(R"({"mix":["secret_srv12","secret_srv12"],)"
                       R"("cores":2})"));
    EXPECT_EQ(conflicted.status, 400);
    EXPECT_NE(conflicted.body.find("implied"), std::string::npos);

    // A provider axis with no AsmDB mode to steer is refused, not
    // expanded into plain base shards.
    const http::Response providerless = call(
        port, postJobs(R"({"workloads":["secret_srv12"],)"
                       R"("distance_provider":["profile","adaptive"]})"));
    EXPECT_EQ(providerless.status, 400);
    EXPECT_NE(providerless.body.find("distance_provider"),
              std::string::npos);

    // A pending job's result is 409 with progress attached.
    const http::Response accepted = call(
        port, postJobs(R"({"workloads":["secret_crypto52"],)"
                       R"("instructions":30000})"));
    ASSERT_EQ(accepted.status, 202);
    const std::uint64_t id = jsonField(accepted.body, "id");
    const http::Response pending =
        call(port, get("/jobs/" + std::to_string(id) + "/result"));
    EXPECT_EQ(pending.status, 409);
    EXPECT_NE(pending.body.find("\"progress\":{"), std::string::npos);

    // DELETE cancels it; a second DELETE is 409.
    http::Request del;
    del.method = "DELETE";
    del.target = "/jobs/" + std::to_string(id);
    EXPECT_EQ(call(port, del).status, 200);
    EXPECT_EQ(call(port, del).status, 409);

    // The rejected-request counter saw the 404s/405s above.
    const http::Response metrics = call(port, get("/metrics"));
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("sipre_requests_rejected_total"),
              std::string::npos);
}

TEST(JobsHttp, DaemonRestartResumesWithoutRerunningShards)
{
    TempDir dir;
    EngineOptions engine_options;
    engine_options.workers = 1;
    JobManagerOptions job_options;
    job_options.store_dir = dir.path;
    job_options.shard_workers = 1;

    std::uint64_t id = 0;
    std::uint64_t sims_before = 0;
    std::uint64_t done_before = 0;
    const std::string spec =
        R"({"workloads":["secret_crypto52","secret_srv12"],)"
        R"("ftq":[4,6,8],"instructions":200000})";
    {
        Stack first(engine_options, job_options);
        const http::Response accepted =
            call(first.server.port(), postJobs(spec));
        ASSERT_EQ(accepted.status, 202);
        id = jsonField(accepted.body, "id");
        ASSERT_EQ(jsonField(accepted.body, "shards"), 6u);

        // Wait for at least one checkpointed shard, then "kill" the
        // daemon mid-job (the Stack destructor runs the graceful path;
        // kRunning shards persist as pending either way).
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(120);
        while (std::chrono::steady_clock::now() < deadline) {
            const http::Response progress = call(
                first.server.port(),
                get("/jobs/" + std::to_string(id)));
            ASSERT_EQ(progress.status, 200);
            done_before = jsonField(progress.body, "shards_done");
            if (done_before >= 1)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        ASSERT_GE(done_before, 1u) << "no shard finished in time";
        // Drain explicitly so the in-flight shard (which completes and
        // checkpoints during shutdown) is counted; the destructor's
        // repeat calls are idempotent.
        first.server.beginDrain();
        first.manager.shutdown();
        sims_before = first.engine.stats().sim_runs;
        ASSERT_GE(sims_before, done_before);
        ASSERT_LT(sims_before, 6u)
            << "the whole job finished before the restart";
    }

    // Second incarnation over the same store: the job resumes and
    // finishes; the completed shards are never simulated again.
    {
        Stack second(engine_options, job_options);
        const http::Response metrics =
            call(second.server.port(), get("/metrics"));
        ASSERT_EQ(metrics.status, 200);
        EXPECT_NE(metrics.body.find("sipre_jobs_resumed_total 1"),
                  std::string::npos);

        EXPECT_EQ(awaitJobOverHttp(second.server.port(), id),
                  "completed");
        const std::uint64_t sims_after = second.engine.stats().sim_runs;
        // 6 shards total; every shard ran exactly once across the two
        // incarnations. (The relaunched engine may serve nothing from
        // caches here: its LRU starts empty, so the remaining shards
        // all simulate.)
        EXPECT_EQ(sims_before + sims_after, 6u);

        const http::Response fetched = call(
            second.server.port(),
            get("/jobs/" + std::to_string(id) + "/result"));
        ASSERT_EQ(fetched.status, 200);
        for (int i = 0; i < 6; ++i)
            EXPECT_NE(fetched.body.find("\"index\":" +
                                        std::to_string(i) + ","),
                      std::string::npos);
        EXPECT_EQ(fetched.body.find("\"state\":\"skipped\""),
                  std::string::npos);
        EXPECT_EQ(fetched.body.find("\"state\":\"failed\""),
                  std::string::npos);
    }
}

TEST(JobsHttp, SubmitBackpressureIs429WithRetryAfter)
{
    TempDir dir;
    JobManagerOptions job_options;
    job_options.store_dir = dir.path;
    job_options.shard_workers = 0; // jobs stay active forever
    job_options.max_active_jobs = 1;
    Stack stack(EngineOptions{}, job_options);
    const std::uint16_t port = stack.server.port();

    const std::string spec =
        R"({"workloads":["secret_crypto52"],"instructions":30000})";
    ASSERT_EQ(call(port, postJobs(spec)).status, 202);
    const http::Response rejected = call(port, postJobs(spec));
    EXPECT_EQ(rejected.status, 429);
    EXPECT_NE(rejected.body.find("\"status\":\"rejected\""),
              std::string::npos);
    ASSERT_NE(rejected.header("Retry-After"), nullptr);

    const http::Response metrics = call(port, get("/metrics"));
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("sipre_jobs_rejected_total 1"),
              std::string::npos);
}
