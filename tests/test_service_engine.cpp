/**
 * @file
 * SimulationEngine behaviour: cold results are bit-identical to driving
 * Simulator directly, repeats hit the LRU without re-simulation, N
 * concurrent identical requests coalesce into exactly one run, the
 * bounded queue rejects overflow while accepted work completes, and
 * the result cache layers over the campaign disk cache and survives a
 * flush/reload cycle.
 */
#include <atomic>
#include <chrono>
#include <cstdio>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/result_compare.hpp"
#include "core/simulator.hpp"
#include "service/engine.hpp"
#include "trace/synth/workload.hpp"

using namespace sipre;
using namespace sipre::service;

namespace
{

SimRequest
smallRequest(const std::string &workload, std::uint32_t ftq,
             std::uint64_t instructions = 30'000)
{
    SimRequest request;
    request.workload = workload;
    request.instructions = instructions;
    request.ftq_entries = ftq;
    return request;
}

/** Spin until `predicate` holds or ~5 s elapse. */
template <typename Fn>
bool
waitFor(Fn &&predicate)
{
    for (int i = 0; i < 500; ++i) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

} // namespace

TEST(ServiceEngine, ColdResultMatchesDirectSimulation)
{
    EngineOptions options;
    options.workers = 2;
    SimulationEngine engine(options);

    const SimRequest request = smallRequest("secret_crypto52", 4);
    const SubmitOutcome outcome = engine.submit(request);
    ASSERT_EQ(outcome.status, SubmitStatus::kOk);
    ASSERT_NE(outcome.result, nullptr);
    EXPECT_FALSE(outcome.cache_hit);
    EXPECT_FALSE(outcome.coalesced);

    // The same configuration driven through Simulator directly.
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
    const SimResult direct = sim.run();

    EXPECT_EQ(diffSimResults(*outcome.result, direct), "");
}

TEST(ServiceEngine, RepeatIsServedFromCacheWithoutResimulation)
{
    EngineOptions options;
    options.workers = 1;
    SimulationEngine engine(options);

    const SimRequest request = smallRequest("secret_crypto52", 4);
    const SubmitOutcome cold = engine.submit(request);
    ASSERT_EQ(cold.status, SubmitStatus::kOk);
    const SubmitOutcome warm = engine.submit(request);
    ASSERT_EQ(warm.status, SubmitStatus::kOk);
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.result.get(), cold.result.get()); // same object
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.sim_runs, 1u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.cache_entries, 1u);
}

TEST(ServiceEngine, ConcurrentIdenticalRequestsRunExactlyOneSimulation)
{
    EngineOptions options;
    options.workers = 1;
    SimulationEngine engine(options);

    // Long enough that the 7 followers attach while the winner's
    // simulation is still in flight.
    const SimRequest request =
        smallRequest("secret_srv12", 24, 400'000);
    constexpr int kThreads = 8;
    std::latch ready(kThreads);
    std::vector<SubmitOutcome> outcomes(kThreads);
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            ready.arrive_and_wait();
            outcomes[t] = engine.submit(request);
        });
    }
    for (auto &thread : pool)
        thread.join();

    const SimResult *shared = nullptr;
    int coalesced = 0;
    for (const auto &outcome : outcomes) {
        ASSERT_EQ(outcome.status, SubmitStatus::kOk);
        ASSERT_NE(outcome.result, nullptr);
        if (shared == nullptr)
            shared = outcome.result.get();
        EXPECT_EQ(outcome.result.get(), shared); // one shared result
        coalesced += outcome.coalesced ? 1 : 0;
    }
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.sim_runs, 1u);
    EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(coalesced, kThreads - 1);
    EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(ServiceEngine, BoundedQueueRejectsOverflowAndCompletesAccepted)
{
    EngineOptions options;
    options.workers = 1;
    options.queue_capacity = 2;
    SimulationEngine engine(options);

    // Occupy the single worker with a slow request.
    std::thread slow([&] {
        const SubmitOutcome outcome =
            engine.submit(smallRequest("secret_srv12", 24, 400'000));
        EXPECT_EQ(outcome.status, SubmitStatus::kOk);
    });
    ASSERT_TRUE(
        waitFor([&] { return engine.stats().workers_busy == 1; }));

    // Fill the bounded queue with distinct requests.
    std::vector<std::thread> queued;
    for (std::uint32_t i = 0; i < 2; ++i) {
        queued.emplace_back([&, i] {
            const SubmitOutcome outcome =
                engine.submit(smallRequest("secret_crypto52", 4 + i));
            EXPECT_EQ(outcome.status, SubmitStatus::kOk);
            ASSERT_NE(outcome.result, nullptr);
        });
    }
    ASSERT_TRUE(waitFor([&] { return engine.stats().queue_depth == 2; }));

    // The next distinct request must bounce with backpressure, fast.
    const SubmitOutcome rejected =
        engine.submit(smallRequest("secret_crypto52", 16));
    EXPECT_EQ(rejected.status, SubmitStatus::kRejected);
    EXPECT_NE(rejected.error.find("queue full"), std::string::npos);
    EXPECT_EQ(rejected.result, nullptr);

    slow.join();
    for (auto &thread : queued)
        thread.join();
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.sim_runs, 3u);
    EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServiceEngine, ShutdownWithoutDrainAbortsQueuedRequests)
{
    EngineOptions options;
    options.workers = 1;
    options.queue_capacity = 4;
    SimulationEngine engine(options);

    std::thread running([&] {
        const SubmitOutcome outcome =
            engine.submit(smallRequest("secret_srv12", 24, 400'000));
        // The in-flight simulation still completes.
        EXPECT_EQ(outcome.status, SubmitStatus::kOk);
    });
    ASSERT_TRUE(
        waitFor([&] { return engine.stats().workers_busy == 1; }));

    std::thread waiting([&] {
        const SubmitOutcome outcome =
            engine.submit(smallRequest("secret_crypto52", 4));
        EXPECT_EQ(outcome.status, SubmitStatus::kShutdown);
    });
    ASSERT_TRUE(waitFor([&] { return engine.stats().queue_depth == 1; }));

    engine.shutdown(/*drain=*/false);
    running.join();
    waiting.join();

    const SubmitOutcome refused =
        engine.submit(smallRequest("secret_crypto52", 4));
    EXPECT_EQ(refused.status, SubmitStatus::kShutdown);
}

TEST(ServiceEngine, SimulationFailureIsReportedNotCached)
{
    EngineOptions options;
    options.workers = 1;
    SimulationEngine engine(options);

    // Bypass parse-time validation to exercise the worker failure path.
    SimRequest bad;
    bad.workload = "not_a_workload";
    bad.instructions = 30'000;
    const SubmitOutcome outcome = engine.submit(bad);
    EXPECT_EQ(outcome.status, SubmitStatus::kFailed);
    EXPECT_NE(outcome.error.find("unknown workload"), std::string::npos);
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.failures, 1u);
    EXPECT_EQ(stats.cache_entries, 0u);
}

TEST(ServiceEngine, ResultCacheFlushAndWarmStart)
{
    const std::string path =
        ::testing::TempDir() + "/sipre_service_results.cache";

    SimResult first_result;
    {
        EngineOptions options;
        options.workers = 1;
        SimulationEngine engine(options);
        const SubmitOutcome outcome =
            engine.submit(smallRequest("secret_crypto52", 4));
        ASSERT_EQ(outcome.status, SubmitStatus::kOk);
        first_result = *outcome.result;
        EXPECT_EQ(engine.saveResultCache(path), 1);
    }

    EngineOptions options;
    options.workers = 1;
    SimulationEngine engine(options);
    EXPECT_EQ(engine.loadResultCache(path), 1);
    const SubmitOutcome warm =
        engine.submit(smallRequest("secret_crypto52", 4));
    ASSERT_EQ(warm.status, SubmitStatus::kOk);
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(engine.stats().sim_runs, 0u);
    // The text round-trip is lossless (same serializer as the campaign
    // cache, proven lossless by its own tests).
    EXPECT_EQ(diffSimResults(*warm.result, first_result), "");
    std::remove(path.c_str());
}

TEST(ServiceEngine, CampaignDiskCacheServesStandardConfigurations)
{
    CampaignOptions campaign;
    campaign.workloads = 2;
    campaign.instructions = 20'000;
    campaign.cache_dir = ::testing::TempDir();
    campaign.use_cache = true;
    const CampaignResult reference = runStandardCampaign(campaign);
    ASSERT_EQ(reference.workloads.size(), 2u);

    EngineOptions options;
    options.workers = 1;
    options.use_campaign_cache = true;
    options.campaign = campaign;
    SimulationEngine engine(options);

    // Conservative baseline (base mode, FTQ=2) out of the disk cache.
    SimRequest cons = smallRequest(reference.workloads[0].name, 2,
                                   campaign.instructions);
    SubmitOutcome outcome = engine.submit(cons);
    ASSERT_EQ(outcome.status, SubmitStatus::kOk);
    EXPECT_TRUE(outcome.disk_hit);
    EXPECT_EQ(diffSimResults(*outcome.result,
                             reference.workloads[0].cons),
              "");

    // Industry baseline (FTQ=24) and the no-overhead AsmDB variant.
    SimRequest industry = smallRequest(reference.workloads[1].name, 24,
                                       campaign.instructions);
    outcome = engine.submit(industry);
    ASSERT_EQ(outcome.status, SubmitStatus::kOk);
    EXPECT_TRUE(outcome.disk_hit);
    EXPECT_EQ(diffSimResults(*outcome.result,
                             reference.workloads[1].industry),
              "");

    SimRequest ideal = smallRequest(reference.workloads[0].name, 24,
                                    campaign.instructions);
    ideal.mode = SimMode::kNoOverhead;
    outcome = engine.submit(ideal);
    ASSERT_EQ(outcome.status, SubmitStatus::kOk);
    EXPECT_TRUE(outcome.disk_hit);
    EXPECT_EQ(diffSimResults(*outcome.result,
                             reference.workloads[0].asmdb_ind_ideal),
              "");

    // A disk hit is promoted into the LRU: the repeat is a memory hit.
    outcome = engine.submit(cons);
    ASSERT_EQ(outcome.status, SubmitStatus::kOk);
    EXPECT_TRUE(outcome.cache_hit);

    // Nothing above ran a simulation; a non-campaign knob still does.
    EXPECT_EQ(engine.stats().sim_runs, 0u);
    SimRequest off_campaign = smallRequest(reference.workloads[0].name,
                                           8, campaign.instructions);
    outcome = engine.submit(off_campaign);
    ASSERT_EQ(outcome.status, SubmitStatus::kOk);
    EXPECT_FALSE(outcome.disk_hit);
    EXPECT_EQ(engine.stats().sim_runs, 1u);

    std::remove(campaignCachePath(campaign).c_str());
}

TEST(ServiceEngine, LatencyMetricsAccumulate)
{
    EngineOptions options;
    options.workers = 1;
    SimulationEngine engine(options);
    ASSERT_EQ(engine.submit(smallRequest("secret_crypto52", 4)).status,
              SubmitStatus::kOk);
    ASSERT_EQ(engine.submit(smallRequest("secret_crypto52", 4)).status,
              SubmitStatus::kOk);
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.latency.count, 2u);
    EXPECT_GT(stats.latency.sum_us, 0.0);
    EXPECT_GE(stats.latency.p99_us, stats.latency.p50_us);
    EXPECT_GT(stats.cacheHitRate(), 0.0);
}
