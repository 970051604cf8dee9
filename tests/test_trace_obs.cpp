/**
 * @file
 * The tracing layer's contracts: span recording and nesting, the Chrome
 * trace-event JSON schema (validated with the in-tree parser, so the
 * golden check runs everywhere the tests do), the differential guarantee
 * that an armed recorder leaves SimResult byte-identical, scenario
 * timeline consistency across both simulator loops, the campaign-text
 * round-trip of the timeline section, the `GET /jobs/<id>/trace`
 * endpoint, a loose ceiling on the disabled-path cost, and the
 * per-core busy profile.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/json_io.hpp"
#include "core/result_compare.hpp"
#include "core/simulator.hpp"
#include "core/trace_export.hpp"
#include "frontend/scenario_timeline.hpp"
#include "jobs/http.hpp"
#include "jobs/manager.hpp"
#include "service/engine.hpp"
#include "service/http.hpp"
#include "service/server.hpp"
#include "trace/synth/workload.hpp"
#include "trace_obs/busy_profile.hpp"
#include "trace_obs/chrome_trace.hpp"
#include "trace_obs/recorder.hpp"

using namespace sipre;
using namespace sipre::service;
using namespace sipre::trace_obs;

namespace
{

/** Arm the shared recorder for one test; restore the quiet default. */
struct ScopedRecorder
{
    ScopedRecorder()
    {
        Recorder::global().clear();
        Recorder::global().enable();
    }
    ~ScopedRecorder()
    {
        Recorder::global().disable();
        Recorder::global().clear();
    }
};

struct TempDir
{
    std::string path;

    TempDir()
    {
        char name[] = "/tmp/sipre_trace_obs_XXXXXX";
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
post(const std::string &target, std::string body)
{
    http::Request request;
    request.method = "POST";
    request.target = target;
    request.headers.emplace_back("Content-Type", "application/json");
    request.body = std::move(body);
    return request;
}

Trace
workloadTrace(const std::string &name, std::size_t instructions)
{
    const auto suite = synth::cvp1LikeSuite();
    for (const auto &spec : suite) {
        if (spec.name == name)
            return synth::generateTrace(spec, instructions);
    }
    ADD_FAILURE() << "unknown workload " << name;
    return Trace{};
}

SimResult
runOnce(const Trace &trace, std::uint32_t scenario_window,
        bool fast_forward = true)
{
    SimConfig config = SimConfig::industry();
    config.fast_forward = fast_forward;
    Simulator sim(config, trace);
    if (scenario_window != 0)
        sim.enableScenarioTimeline(scenario_window);
    return sim.run();
}

/** Collected copy of one exported event (the buffers stay immutable). */
struct SpanCopy
{
    std::string name;
    std::uint32_t tid = 0;
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t job = 0;
};

std::vector<SpanCopy>
snapshotSpans()
{
    std::vector<SpanCopy> spans;
    Recorder::global().forEachEvent(
        [&](const TraceEvent &event, std::uint32_t tid) {
            spans.push_back({event.name, tid, event.ts_ns, event.dur_ns,
                             event.job});
        });
    return spans;
}

} // namespace

// --------------------------------------------------------------- recorder

TEST(TraceObs, RecorderSpanBasics)
{
    ScopedRecorder armed;

    {
        Span outer("outer", "test");
        outer.arg("who", "outer-span");
        {
            Span inner("inner", "test");
            inner.arg("k0", "v0");
            inner.arg("k1", "v1");
            inner.arg("k2", "v2");
            inner.arg("k3", "dropped: only kMaxArgs stick");
        }
    }

    std::vector<const char *> names;
    const TraceEvent *outer_event = nullptr;
    const TraceEvent *inner_event = nullptr;
    std::vector<TraceEvent> events;
    Recorder::global().forEachEvent(
        [&](const TraceEvent &event, std::uint32_t) {
            events.push_back(event);
        });
    ASSERT_EQ(events.size(), 2u);
    // Spans record at destruction, so inner completes first.
    inner_event = &events[0];
    outer_event = &events[1];
    EXPECT_STREQ(inner_event->name, "inner");
    EXPECT_STREQ(outer_event->name, "outer");
    EXPECT_STREQ(outer_event->cat, "test");

    // Nesting: outer strictly contains inner on the time axis.
    EXPECT_LE(outer_event->ts_ns, inner_event->ts_ns);
    EXPECT_GE(outer_event->ts_ns + outer_event->dur_ns,
              inner_event->ts_ns + inner_event->dur_ns);

    // Args: every inner slot used, the fourth dropped silently.
    static_assert(kMaxArgs == 3);
    EXPECT_STREQ(inner_event->arg_key[0], "k0");
    EXPECT_STREQ(inner_event->arg_val[0], "v0");
    EXPECT_STREQ(inner_event->arg_key[1], "k1");
    EXPECT_STREQ(inner_event->arg_key[2], "k2");
    EXPECT_STREQ(inner_event->arg_val[2], "v2");
    EXPECT_STREQ(outer_event->arg_key[1], "");

    EXPECT_EQ(Recorder::global().bufferedEvents(), 2u);
    EXPECT_EQ(Recorder::global().droppedEvents(), 0u);
}

TEST(TraceObs, DisabledSpansRecordNothing)
{
    Recorder::global().disable();
    Recorder::global().clear();
    {
        Span span("ghost", "test");
        span.arg("k", "v");
    }
    EXPECT_EQ(Recorder::global().bufferedEvents(), 0u);

    // Metrics text advertises the gate either way.
    const std::string metrics = Recorder::global().metricsText();
    EXPECT_NE(metrics.find("sipre_trace_enabled 0"), std::string::npos);
    EXPECT_NE(metrics.find("sipre_trace_events_dropped_total"),
              std::string::npos);
}

TEST(TraceObs, FullBufferDropsNewEventsNotOldOnes)
{
    Recorder::global().clear();
    // 16 is the enforced capacity floor; it applies to buffers created
    // after enable(), so the spans run on a fresh thread whose log is
    // sized at exactly 16 events.
    Recorder::global().enable(/*capacity_per_thread=*/16);
    std::thread writer([] {
        for (int i = 0; i < 40; ++i) {
            Span span(i == 0 ? "first" : "later", "test");
        }
    });
    writer.join();
    EXPECT_EQ(Recorder::global().bufferedEvents(), 16u);
    EXPECT_EQ(Recorder::global().droppedEvents(), 24u);
    bool saw_first = false;
    Recorder::global().forEachEvent(
        [&](const TraceEvent &event, std::uint32_t) {
            saw_first |= std::string(event.name) == "first";
        });
    EXPECT_TRUE(saw_first);
    Recorder::global().disable();
    Recorder::global().clear();
}

// ------------------------------------------------------------ JSON schema

TEST(TraceObs, ChromeTraceSchemaGolden)
{
    ScopedRecorder armed;
    {
        Span span("schema.span", "test");
        span.arg("key", "value with \"quotes\" and \\slashes\\");
    }

    const Trace trace = workloadTrace("secret_srv12", 60'000);
    const SimResult result = runOnce(trace, 1'000);
    ASSERT_TRUE(result.scenario_timeline.enabled());

    const std::string doc = buildChromeTrace(
        Recorder::global(), /*job_filter=*/0,
        {scenarioCounterSeries(result.scenario_timeline, "ftq scenarios")},
        "schema test");

    // Golden schema check via the in-tree parser: exactly the top-level
    // keys Perfetto needs, every event carrying the per-phase required
    // fields with the right types.
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parseJson(doc, root, error)) << error;
    ASSERT_TRUE(root.isObject());
    ASSERT_EQ(root.object.size(), 2u);
    const JsonValue *unit = root.find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->string, "ms");
    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
    ASSERT_FALSE(events->array.empty());

    std::size_t metadata = 0, spans = 0, counters = 0;
    for (const JsonValue &event : events->array) {
        ASSERT_TRUE(event.isObject());
        const JsonValue *ph = event.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_TRUE(ph->isString());
        ASSERT_NE(event.find("pid"), nullptr);
        ASSERT_NE(event.find("name"), nullptr);
        if (ph->string == "M") {
            ++metadata;
            const JsonValue *args = event.find("args");
            ASSERT_NE(args, nullptr);
            ASSERT_NE(args->find("name"), nullptr);
        } else if (ph->string == "X") {
            ++spans;
            ASSERT_TRUE(event.find("ts")->isNumber());
            ASSERT_TRUE(event.find("dur")->isNumber());
            ASSERT_TRUE(event.find("cat")->isString());
        } else if (ph->string == "C") {
            ++counters;
            ASSERT_TRUE(event.find("ts")->isNumber());
            const JsonValue *args = event.find("args");
            ASSERT_NE(args, nullptr);
            // Counter args are exactly the five taxonomy classes.
            ASSERT_EQ(args->object.size(), kFtqScenarioCount);
            for (std::size_t s = 0; s < kFtqScenarioCount; ++s) {
                const JsonValue *v = args->find(
                    ftqScenarioName(static_cast<FtqScenario>(s)));
                ASSERT_NE(v, nullptr);
                EXPECT_TRUE(v->isNumber());
            }
        } else {
            FAIL() << "unexpected event phase " << ph->string;
        }
    }
    EXPECT_GE(metadata, 2u); // process_name + at least one thread_name
    EXPECT_EQ(spans, 2u);    // schema.span + sim.run
    EXPECT_EQ(counters, result.scenario_timeline.windows.size());
}

TEST(TraceObs, JobFilterKeepsOnlyThatJobsSpans)
{
    ScopedRecorder armed;
    {
        const ScopedJob scope(7);
        Span span("job7.work", "test");
    }
    {
        Span span("unattributed.work", "test");
    }

    const std::string doc =
        buildChromeTrace(Recorder::global(), /*job_filter=*/7, {}, "t");
    EXPECT_NE(doc.find("job7.work"), std::string::npos);
    EXPECT_EQ(doc.find("unattributed.work"), std::string::npos);

    const std::string all =
        buildChromeTrace(Recorder::global(), /*job_filter=*/0, {}, "t");
    EXPECT_NE(all.find("job7.work"), std::string::npos);
    EXPECT_NE(all.find("unattributed.work"), std::string::npos);
}

// ----------------------------------------------------------- differential

TEST(TraceObs, TraceOffLeavesSimResultByteIdentical)
{
    const Trace trace = workloadTrace("secret_srv12", 60'000);

    Recorder::global().disable();
    const SimResult plain = runOnce(trace, 0);

    // Armed recorder, no scenario timeline: the spans observe the run,
    // they must not perturb it.
    {
        ScopedRecorder armed;
        const SimResult traced = runOnce(trace, 0);
        EXPECT_EQ(diffSimResults(plain, traced), "");

        std::ostringstream a, b;
        writeSimResultText(a, plain);
        writeSimResultText(b, traced);
        EXPECT_EQ(a.str(), b.str());
        EXPECT_EQ(simResultToJson(plain), simResultToJson(traced));
    }

    // Scenario timeline on: every non-timeline field still identical.
    SimResult with_timeline = runOnce(trace, 2'000);
    EXPECT_TRUE(with_timeline.scenario_timeline.enabled());
    with_timeline.scenario_timeline = ScenarioTimeline{};
    EXPECT_EQ(diffSimResults(plain, with_timeline), "");
}

TEST(TraceObs, ScenarioTimelineConsistency)
{
    const Trace trace = workloadTrace("secret_srv21", 60'000);

    const SimResult skip = runOnce(trace, 1'000, /*fast_forward=*/true);
    const SimResult ref = runOnce(trace, 1'000, /*fast_forward=*/false);

    ASSERT_TRUE(skip.scenario_timeline.enabled());
    // Attribution is exact, not sampled: every post-warmup cycle lands
    // in exactly one class of exactly one window.
    EXPECT_EQ(skip.scenario_timeline.totalCycles(), skip.cycles);

    // The fast-forward loop and the cycle-by-cycle reference loop agree
    // on the whole timeline, not just the totals.
    EXPECT_EQ(diffSimResults(skip, ref), "");
    ASSERT_EQ(skip.scenario_timeline, ref.scenario_timeline);

    // Windows tile the run: consecutive, aligned, window_size apart.
    const auto &windows = skip.scenario_timeline.windows;
    ASSERT_FALSE(windows.empty());
    for (std::size_t i = 1; i < windows.size(); ++i)
        EXPECT_EQ(windows[i].start_cycle,
                  windows[i - 1].start_cycle + 1'000);

    // The timeline agrees with the aggregate scenario counters.
    std::uint64_t s1 = 0, s2 = 0, s3 = 0;
    for (const ScenarioWindow &w : windows) {
        s1 += w.cycles[static_cast<std::size_t>(
            FtqScenario::kShootThrough)];
        s2 += w.cycles[static_cast<std::size_t>(
            FtqScenario::kStallingHead)];
        s3 += w.cycles[static_cast<std::size_t>(
            FtqScenario::kShadowStall)];
    }
    EXPECT_EQ(s1, skip.frontend.scenario1_cycles);
    EXPECT_EQ(s2, skip.frontend.scenario2_cycles);
    EXPECT_EQ(s3, skip.frontend.scenario3_cycles);
}

TEST(TraceObs, TimelineTextRoundTrip)
{
    const Trace trace = workloadTrace("secret_srv12", 60'000);
    const SimResult original = runOnce(trace, 1'000);
    ASSERT_TRUE(original.scenario_timeline.enabled());

    std::ostringstream os;
    writeSimResultText(os, original);
    const std::string text = os.str();

    std::istringstream is(text);
    SimResult reloaded;
    ASSERT_TRUE(readSimResultText(is, reloaded));
    EXPECT_EQ(diffSimResults(original, reloaded), "");
    EXPECT_EQ(original.scenario_timeline, reloaded.scenario_timeline);

    // A tampered count is caught by the diff...
    SimResult tampered = reloaded;
    ASSERT_FALSE(tampered.scenario_timeline.windows.empty());
    tampered.scenario_timeline.windows[0].cycles[0] += 1;
    EXPECT_NE(diffSimResults(original, tampered), "");

    // ...and a garbled timeline tag rejects the whole record.
    std::string garbled = text;
    const std::size_t tag = garbled.find(" tl ");
    ASSERT_NE(tag, std::string::npos);
    garbled[tag + 1] = 'x';
    std::istringstream bad(garbled);
    SimResult rejected;
    EXPECT_FALSE(readSimResultText(bad, rejected));
}

// ------------------------------------------------------------ concurrency

TEST(TraceObs, ConcurrentRequestsKeepSpanNestingDiscipline)
{
    ScopedRecorder armed;

    EngineOptions engine_options;
    engine_options.workers = 2;
    SimulationEngine engine(engine_options);
    ServerOptions server_options;
    server_options.connection_threads = 4;
    ServiceServer server(engine, server_options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const std::uint16_t port = server.port();

    // Distinct requests from concurrent clients: no coalescing, every
    // request takes the full span path on several threads at once.
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([port, c] {
            const std::string body =
                "{\"workload\":\"secret_srv12\",\"instructions\":30000,"
                "\"ftq\":" +
                std::to_string(4 + 2 * c) + "}";
            const http::Response response =
                call(port, post("/simulate", body));
            EXPECT_EQ(response.status, 200) << response.body;
        });
    }
    for (std::thread &t : clients)
        t.join();
    server.shutdown(/*drain_engine=*/true);

    const std::vector<SpanCopy> spans = snapshotSpans();
    ASSERT_FALSE(spans.empty());

    std::size_t http_spans = 0, submit_spans = 0, run_spans = 0;
    for (const SpanCopy &span : spans) {
        http_spans += span.name == "http.request";
        submit_spans += span.name == "engine.submit";
        run_spans += span.name == "sim.run";
    }
    EXPECT_EQ(http_spans, 4u);
    EXPECT_EQ(submit_spans, 4u);
    EXPECT_EQ(run_spans, 4u);

    // Per-thread stack discipline: on one thread, two spans either nest
    // or are disjoint — partial overlap means the recorder attributed
    // events to the wrong thread or tore a buffer.
    for (std::size_t i = 0; i < spans.size(); ++i) {
        for (std::size_t j = i + 1; j < spans.size(); ++j) {
            const SpanCopy &a = spans[i];
            const SpanCopy &b = spans[j];
            if (a.tid != b.tid)
                continue;
            const std::uint64_t a_end = a.ts_ns + a.dur_ns;
            const std::uint64_t b_end = b.ts_ns + b.dur_ns;
            const bool disjoint =
                a_end <= b.ts_ns || b_end <= a.ts_ns;
            const bool a_contains_b =
                a.ts_ns <= b.ts_ns && b_end <= a_end;
            const bool b_contains_a =
                b.ts_ns <= a.ts_ns && a_end <= b_end;
            EXPECT_TRUE(disjoint || a_contains_b || b_contains_a)
                << a.name << " [" << a.ts_ns << "," << a_end << ") vs "
                << b.name << " [" << b.ts_ns << "," << b_end
                << ") on tid " << a.tid;
        }
    }
}

// A co-run is one Simulator run: a traced cores=2 /simulate records a
// single sim.run span (tagged with its core count) inside the worker's
// engine.simulate span, so no part of the co-run's wall time is dark.
TEST(TraceObs, CoRunSimulationIsOneSimRunSpanUnderEngineSimulate)
{
    ScopedRecorder armed;

    EngineOptions engine_options;
    engine_options.workers = 1;
    SimulationEngine engine(engine_options);
    ServiceServer server(engine, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const http::Response response = call(
        server.port(),
        post("/simulate", R"({"workload":"secret_srv12","cores":2,)"
                          R"("instructions":20000})"));
    ASSERT_EQ(response.status, 200) << response.body;
    server.shutdown(/*drain_engine=*/true);

    std::vector<TraceEvent> runs, simulates;
    std::vector<std::uint32_t> run_tids, simulate_tids;
    Recorder::global().forEachEvent(
        [&](const TraceEvent &event, std::uint32_t tid) {
            if (std::string(event.name) == "sim.run") {
                runs.push_back(event);
                run_tids.push_back(tid);
            } else if (std::string(event.name) == "engine.simulate") {
                simulates.push_back(event);
                simulate_tids.push_back(tid);
            }
        });
    ASSERT_EQ(runs.size(), 1u);
    ASSERT_EQ(simulates.size(), 1u);
    const TraceEvent &run = runs[0];
    const TraceEvent &simulate = simulates[0];
    EXPECT_EQ(run_tids[0], simulate_tids[0]);
    EXPECT_LE(simulate.ts_ns, run.ts_ns);
    EXPECT_GE(simulate.ts_ns + simulate.dur_ns, run.ts_ns + run.dur_ns);

    std::string cores, workload;
    for (std::size_t i = 0; i < kMaxArgs; ++i) {
        if (std::string(run.arg_key[i]) == "cores")
            cores = run.arg_val[i];
        if (std::string(run.arg_key[i]) == "workload")
            workload = run.arg_val[i];
    }
    EXPECT_EQ(cores, "2");
    EXPECT_EQ(workload, "secret_srv12+secret_srv12");
}

// ------------------------------------------------------------- jobs HTTP

TEST(TraceObs, JobTraceEndpoint)
{
    ScopedRecorder armed;
    TempDir store;

    EngineOptions engine_options;
    engine_options.workers = 2;
    engine_options.scenario_window = 2'048;
    SimulationEngine engine(engine_options);
    jobs::JobManagerOptions job_options;
    job_options.store_dir = store.path;
    jobs::JobManager manager(engine, job_options);
    jobs::JobHttpHandler handler(manager);
    ServiceServer server(engine, ServerOptions{});
    server.addHandler([&handler](const http::Request &request) {
        return handler.handle(request);
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const std::uint16_t port = server.port();

    const http::Response accepted = call(
        port, post("/jobs", R"({"workloads":["secret_crypto52"],)"
                            R"("ftq":[4,8],"instructions":30000})"));
    ASSERT_EQ(accepted.status, 202) << accepted.body;
    const std::string id_text = std::to_string([&] {
        const std::string needle = "\"id\":";
        return std::stoull(
            accepted.body.substr(accepted.body.find(needle) +
                                 needle.size()));
    }());

    // Poll to terminal.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    for (;;) {
        const http::Response progress =
            call(port, get("/jobs/" + id_text));
        ASSERT_EQ(progress.status, 200);
        if (progress.body.find("\"state\":\"completed\"") !=
            std::string::npos)
            break;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "job did not complete: " << progress.body;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    const http::Response trace =
        call(port, get("/jobs/" + id_text + "/trace"));
    ASSERT_EQ(trace.status, 200) << trace.body;

    JsonValue root;
    ASSERT_TRUE(parseJson(trace.body, root, error)) << error;
    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t shard_spans = 0, simulate_spans = 0, counter_points = 0;
    for (const JsonValue &event : events->array) {
        const JsonValue *ph = event.find("ph");
        const JsonValue *name = event.find("name");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(name, nullptr);
        if (ph->string == "X" && name->string == "jobs.shard")
            ++shard_spans;
        if (ph->string == "X" && name->string == "engine.simulate")
            ++simulate_spans;
        if (ph->string == "C")
            ++counter_points;
    }
    // Two shards, each with a jobs.shard span, a worker-side
    // engine.simulate span (attributed across the queue hop), and a
    // non-empty scenario counter track.
    EXPECT_EQ(shard_spans, 2u);
    EXPECT_EQ(simulate_spans, 2u);
    EXPECT_GT(counter_points, 0u);
    EXPECT_NE(trace.body.find("ftq scenarios: shard0"),
              std::string::npos);
    EXPECT_NE(trace.body.find("ftq scenarios: shard1"),
              std::string::npos);

    // Routing: unknown id is 404, wrong method is 405 with Allow.
    EXPECT_EQ(call(port, get("/jobs/999999/trace")).status, 404);
    const http::Response wrong_method =
        call(port, post("/jobs/" + id_text + "/trace", "{}"));
    EXPECT_EQ(wrong_method.status, 405);
    const std::string *allow = wrong_method.header("Allow");
    ASSERT_NE(allow, nullptr);
    EXPECT_EQ(*allow, "GET");

    server.beginDrain();
    manager.shutdown();
    server.shutdown(/*drain_engine=*/true);
}

// --------------------------------------------------------------- overhead

TEST(TraceObs, DisabledSpanStaysCheap)
{
    Recorder::global().disable();
    constexpr int kOps = 1'000'000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kOps; ++i) {
        Span span("guard", "test");
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns_per_span =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / kOps;
    // Contract: ~one relaxed atomic load. The bound is two orders of
    // magnitude above target so CI noise can't flake it, while still
    // catching a clock read or allocation sneaking into the fast path.
    EXPECT_LT(ns_per_span, 1'000.0);
}

// The busy profile is armed per run and kept per core: arming it must
// not change a byte of the result, and it must attribute time to every
// core's front-end and back-end, with the shared LLC/DRAM apart.
TEST(TraceObs, BusyProfileIsPerCoreAndLeavesResultsByteIdentical)
{
    for (const std::uint32_t cores : {1u, 2u}) {
        SimRequest request;
        request.workload = "secret_srv12";
        request.instructions = 30'000;
        request.cores = cores;
        RunInputs armed_inputs;
        armed_inputs.busy_profile = true;
        RunRecord armed, plain;
        const SimResult profiled =
            runSimRequest(request, armed_inputs, &armed);
        const SimResult unprofiled = runSimRequest(request, {}, &plain);

        std::ostringstream a, b;
        writeSimResultText(a, profiled);
        writeSimResultText(b, unprofiled);
        EXPECT_EQ(a.str(), b.str()) << "cores=" << cores;

        EXPECT_TRUE(plain.core_busy.empty());
        ASSERT_EQ(armed.core_busy.size(), cores);
        for (const BusyProfile &core : armed.core_busy) {
            for (const BusyComponent c :
                 {BusyComponent::kFrontend, BusyComponent::kBackend}) {
                EXPECT_GT(core[c].ticks, 0u) << busyComponentName(c);
                EXPECT_GT(core[c].ns, 0u) << busyComponentName(c);
            }
            EXPECT_EQ(core[BusyComponent::kLlc].ticks, 0u);
        }
        EXPECT_GT(armed.shared_busy[BusyComponent::kLlc].ticks, 0u);
        EXPECT_GT(armed.shared_busy[BusyComponent::kDram].ticks, 0u);
        EXPECT_EQ(armed.shared_busy[BusyComponent::kFrontend].ticks, 0u);
    }
}

TEST(TraceObs, UnarmedBusyProfileStaysZero)
{
    Trace second = workloadTrace("secret_srv12", 20'000);
    second.rebase(kCoreAddressStride);
    const Trace first = workloadTrace("secret_srv12", 20'000);
    Simulator sim(SimConfig::industry(), {&first, &second});
    sim.run();
    for (const BusyProfile *profile :
         {&sim.busyProfile(0), &sim.busyProfile(1),
          &sim.sharedBusyProfile()}) {
        for (const BusyProfile::Slot &slot : profile->slots) {
            EXPECT_EQ(slot.ns, 0u);
            EXPECT_EQ(slot.ticks, 0u);
        }
    }
}
