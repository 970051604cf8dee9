/**
 * @file
 * The cores=1 referee. tests/data/cores1_digests.txt holds the fnv1a64
 * of writeSimResultText for every one-core run the multi-core
 * differential suite used to compare between two drivers, recorded
 * with the single-core Simulator before the one-driver merge:
 *
 *  - campaign: all 48 synth workloads at 40k instructions through the
 *    six standard-campaign configurations (cons, industry, and AsmDB's
 *    rewritten and no-overhead runs against each baseline);
 *  - hwpf: the hwpf-managed prefetchers (FDIP, MANA, FDIP+MANA) with
 *    the iTLB armed;
 *  - feature: the iTLB with EIP-lite and IP-stride, the metadata
 *    preloader, and the reference (SIPRE_NO_SKIP-equivalent) loop.
 *
 * Each row is recomputed through today's Simulator, so a change to the
 * driver that perturbs any one-core result fails here by name.
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "asmdb/extensions.hpp"
#include "asmdb/pipeline.hpp"
#include "core/experiment.hpp"
#include "core/simulator.hpp"
#include "trace/synth/workload.hpp"

namespace sipre
{
namespace
{

std::string
textDigest(const SimResult &result)
{
    std::ostringstream os;
    writeSimResultText(os, result);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : os.str()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** "<group> <workload> <run>" -> digest, for the rows of `group`. */
std::map<std::string, std::string>
recorded(const std::string &group)
{
    std::ifstream in(SIPRE_CORES1_DIGESTS);
    EXPECT_TRUE(in) << "cannot open " << SIPRE_CORES1_DIGESTS;
    std::map<std::string, std::string> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string g, workload, run, digest;
        fields >> g >> workload >> run >> digest;
        if (g == group)
            rows[g + " " + workload + " " + run] = digest;
    }
    return rows;
}

/** Digests recomputed by a test, keyed like recorded(). */
class Recomputed
{
  public:
    void
    put(const std::string &key, const SimResult &result)
    {
        const std::string digest = textDigest(result);
        std::lock_guard<std::mutex> lock(mutex_);
        rows_[key] = digest;
    }

    /** Every recorded row of `group` was recomputed, and equal. */
    void
    expectMatches(const std::string &group, std::size_t rows)
    {
        const auto want = recorded(group);
        EXPECT_EQ(want.size(), rows);
        EXPECT_EQ(rows_.size(), want.size());
        for (const auto &[key, digest] : want) {
            const auto it = rows_.find(key);
            if (it == rows_.end())
                ADD_FAILURE() << "not recomputed: " << key;
            else
                EXPECT_EQ(it->second, digest) << key;
        }
    }

  private:
    std::mutex mutex_;
    std::map<std::string, std::string> rows_;
};

SimResult
run(const SimConfig &config, const Trace &trace,
    const SwPrefetchTriggers *triggers = nullptr)
{
    Simulator sim(config, trace);
    if (triggers != nullptr)
        sim.setSwPrefetchTriggers(triggers);
    return sim.run();
}

Trace
serverTrace()
{
    return synth::generateTrace(
        synth::makeWorkloadSpec("secret_srv12", synth::Archetype::kServer,
                                0x517e2023ULL),
        120'000);
}

// The suite and test names are those of the two-driver comparisons
// (Simulator vs a one-core MultiCoreSimulator) that these digests replace.
class MultiCoreDifferential : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // A stray SIPRE_NO_SKIP would run the reference loop everywhere
        // and leave the skip loop unchecked.
        ::unsetenv("SIPRE_NO_SKIP");
    }
};

// The six standard-campaign configurations of every synth workload,
// including the AsmDB pipeline runs against both baselines (mirrors
// runOneWorkload() in experiment.cpp).
TEST_F(MultiCoreDifferential, StandardCampaignCores1BitIdentical)
{
    const auto suite = synth::cvp1LikeSuite(48);
    Recomputed got;
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            const std::size_t index = next.fetch_add(1);
            if (index >= suite.size())
                return;
            const Trace trace = synth::generateTrace(suite[index], 40'000);
            const std::string key = "campaign " + trace.name() + " ";
            const SimConfig cons = SimConfig::conservative();
            const SimConfig industry = SimConfig::industry();
            got.put(key + "cons", run(cons, trace));
            got.put(key + "industry", run(industry, trace));
            const auto a = asmdb::runPipeline(trace, cons);
            got.put(key + "asmdb-cons", run(cons, a.rewrite.trace));
            got.put(key + "noovh-cons", run(cons, trace, &a.triggers));
            const auto b = asmdb::runPipeline(trace, industry);
            got.put(key + "asmdb-industry", run(industry, b.rewrite.trace));
            got.put(key + "noovh-industry",
                    run(industry, trace, &b.triggers));
        }
    };
    const unsigned threads = std::clamp(std::thread::hardware_concurrency(),
                                        1u, 4u);
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    got.expectMatches("campaign", 48 * 6);
}

// The hwpf-managed prefetchers wire through the front-end (FTQ
// observer, iTLB) and the L1-I install point.
TEST_F(MultiCoreDifferential, Cores1HwpfPrefetchersMatchSingleCore)
{
    const Trace trace = serverTrace();
    Recomputed got;
    for (const auto &[kind, name] :
         {std::pair{IPrefetcherKind::kFdip, "fdip"},
          std::pair{IPrefetcherKind::kMana, "mana"},
          std::pair{IPrefetcherKind::kFdipMana, "fdip+mana"}}) {
        SimConfig config = SimConfig::industry();
        config.frontend.itlb = true; // arm the TLB-aware wrapper
        config.memory.l1i_prefetcher = kind;
        got.put(std::string("hwpf secret_srv12 itlb-") + name,
                run(config, trace));
    }
    got.expectMatches("hwpf", 3);
}

// The iTLB with the L1-I/L1-D prefetchers, the metadata preloader, and
// the reference cycle-by-cycle loop.
TEST_F(MultiCoreDifferential, Cores1FeatureCombinations)
{
    const Trace trace = serverTrace();
    Recomputed got;
    {
        SimConfig config = SimConfig::industry();
        config.frontend.itlb = true;
        config.memory.l1i_prefetcher = IPrefetcherKind::kEipLite;
        config.memory.l1d_prefetcher = DPrefetcherKind::kIpStride;
        got.put("feature secret_srv12 itlb-eip-lite-ip-stride",
                run(config, trace));
    }
    {
        const SimConfig industry = SimConfig::industry();
        const auto art = asmdb::runPipeline(trace, industry);
        Simulator sim(industry, trace);
        sim.attachMetadataPreloader(MetadataPreloadConfig{},
                                    asmdb::buildMetadataMap(art.plan));
        got.put("feature secret_srv12 metadata-preload", sim.run());
    }
    {
        SimConfig config = SimConfig::industry();
        config.fast_forward = false;
        got.put("feature secret_srv12 reference-loop", run(config, trace));
    }
    got.expectMatches("feature", 3);
}

} // namespace
} // namespace sipre
