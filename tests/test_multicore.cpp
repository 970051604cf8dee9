/**
 * @file
 * Differential tests for co-runs on the one Simulator driver:
 *
 *  - At cores>1 the skip scheduler is bit-identical to the reference
 *    cycle-by-cycle loop (SIPRE_NO_SKIP), and repeated runs of the same
 *    mix are deterministic.
 *  - The arbitrated memory controller is a pure pass-through at cores=1
 *    and attributes shared-LLC traffic per core under contention.
 *
 * The one-core results themselves are pinned by the recorded digests
 * in test_cores1_digests.cpp.
 */
#include <cstdlib>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/json_io.hpp"
#include "core/result_compare.hpp"
#include "core/simulator.hpp"
#include "trace/synth/workload.hpp"

namespace sipre
{
namespace
{

class MultiCoreDifferential : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // A stray SIPRE_NO_SKIP would turn every skip run into a
        // reference run and make the skip-vs-loop comparisons vacuous.
        ::unsetenv("SIPRE_NO_SKIP");
    }
};

Trace
makeTrace(const char *name, synth::Archetype archetype,
          std::size_t instructions)
{
    return synth::generateTrace(
        synth::makeWorkloadSpec(name, archetype, 0x517e2023ULL),
        instructions);
}

/** One config run on one core. */
SimResult
runSingle(const SimConfig &config, const Trace &trace)
{
    Simulator sim(config, trace);
    return sim.run();
}

// At cores=1 the reference cycle-by-cycle loop and the skip loop agree
// through the arbitrated memory controller (the same two-sided pinning
// the co-run mixes get below).
TEST_F(MultiCoreDifferential, Cores1ReferenceLoopAndSkipLoopAgree)
{
    const Trace trace =
        makeTrace("secret_srv12", synth::Archetype::kServer, 120'000);
    SimConfig config = SimConfig::industry();

    config.fast_forward = false;
    const SimResult reference = runSingle(config, trace);

    config.fast_forward = true;
    const SimResult skip = runSingle(config, trace);
    EXPECT_EQ(diffSimResults(reference, skip), "");
}

std::vector<Trace>
makeMixTraces(std::size_t cores)
{
    std::vector<Trace> traces;
    traces.push_back(
        makeTrace("secret_srv12", synth::Archetype::kServer, 60'000));
    if (cores >= 2)
        traces.push_back(makeTrace("secret_int_124",
                                   synth::Archetype::kInteger, 60'000));
    if (cores >= 3)
        traces.push_back(makeTrace("secret_crypto52",
                                   synth::Archetype::kCrypto, 60'000));
    if (cores >= 4)
        traces.push_back(
            makeTrace("secret_srv7", synth::Archetype::kServer, 60'000));
    // Same relocation the real entry points apply: one address range
    // per process, so the shared LLC sees genuine contention rather
    // than the synthesized layouts' constructive aliasing.
    for (std::size_t i = 0; i < traces.size(); ++i)
        traces[i].rebase(i * kCoreAddressStride);
    return traces;
}

SimResult
runMix(const SimConfig &config, const std::vector<Trace> &traces)
{
    std::vector<const Trace *> ptrs;
    for (const Trace &t : traces)
        ptrs.push_back(&t);
    Simulator sim(config, ptrs);
    return sim.run();
}

// Repeated runs of the same heterogeneous mix are bit-identical, at
// both 2 and 4 cores, including every per-core section.
TEST_F(MultiCoreDifferential, MixedRunsAreDeterministic)
{
    for (const std::size_t cores : {2u, 4u}) {
        const auto traces = makeMixTraces(cores);
        const SimConfig config = SimConfig::industry();
        const SimResult a = runMix(config, traces);
        const SimResult b = runMix(config, traces);
        EXPECT_EQ(diffSimResults(a, b), "") << cores << " cores";
        ASSERT_EQ(a.core_results.size(), cores);
        ASSERT_EQ(b.core_results.size(), cores);
    }
}

// The multi-core skip scheduler against the multi-core reference loop:
// a 2-core mix under SIPRE_NO_SKIP must be bit-identical to the same
// mix fast-forwarded. This is the N-core generalization of the
// single-core skip/reference differential.
TEST_F(MultiCoreDifferential, TwoCoreSkipMatchesReferenceLoop)
{
    const auto traces = makeMixTraces(2);
    SimConfig config = SimConfig::industry();

    config.fast_forward = true;
    const SimResult ffw = runMix(config, traces);

    ::setenv("SIPRE_NO_SKIP", "1", 1);
    const SimResult ref = runMix(config, traces);
    ::unsetenv("SIPRE_NO_SKIP");

    EXPECT_EQ(diffSimResults(ref, ffw), "");
}

// Same skip-vs-loop check with the combined FDIP+MANA configuration:
// the run-ahead walk's event claims and the prefetch drains must not
// perturb the multi-core scheduler at cores>1 either.
TEST_F(MultiCoreDifferential, TwoCoreSkipMatchesReferenceWithFdipMana)
{
    const auto traces = makeMixTraces(2);
    SimConfig config = SimConfig::industry();
    config.memory.l1i_prefetcher = IPrefetcherKind::kFdipMana;
    config.frontend.itlb = true;

    config.fast_forward = true;
    const SimResult ffw = runMix(config, traces);

    ::setenv("SIPRE_NO_SKIP", "1", 1);
    const SimResult ref = runMix(config, traces);
    ::unsetenv("SIPRE_NO_SKIP");

    EXPECT_EQ(diffSimResults(ref, ffw), "");
    // Both cores ran the same two-component configuration, so the
    // aggregate carries the merged fdip+mana counter blocks.
    ASSERT_EQ(ffw.hwpf.size(), 2u);
    EXPECT_EQ(ffw.hwpf[0].name, "fdip");
    EXPECT_EQ(ffw.hwpf[1].name, "mana");
    ASSERT_EQ(ffw.core_results.size(), 2u);
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(ffw.hwpf[c].issued, ffw.core_results[0].hwpf[c].issued +
                                          ffw.core_results[1].hwpf[c].issued);
    }
}

// Structural invariants of the arbitrated controller: at cores=1 the
// port is a pure pass-through (nothing ever queues), while a 2-core
// co-run on cache-hostile workloads exercises the queue and attributes
// LLC demand traffic to both cores.
TEST_F(MultiCoreDifferential, ControllerContentionAccounting)
{
    {
        const Trace trace =
            makeTrace("secret_srv12", synth::Archetype::kServer, 60'000);
        Simulator sim(SimConfig::industry(), {&trace});
        sim.run();
        const PortStats &port = sim.controller().portStats()[0];
        EXPECT_EQ(port.queued, 0u);
        EXPECT_EQ(port.grants, 0u);
        EXPECT_GT(port.bypassed, 0u);
    }
    {
        const auto traces = makeMixTraces(2);
        std::vector<const Trace *> ptrs{&traces[0], &traces[1]};
        Simulator sim(SimConfig::industry(), ptrs);
        const SimResult result = sim.run();
        ASSERT_EQ(result.core_results.size(), 2u);
        const auto &hits = result.shared_mem.llc_core_hits;
        const auto &misses = result.shared_mem.llc_core_misses;
        ASSERT_EQ(hits.size(), 2u);
        ASSERT_EQ(misses.size(), 2u);
        EXPECT_GT(hits[0] + misses[0], 0u);
        EXPECT_GT(hits[1] + misses[1], 0u);
        // Per-core demand attribution adds up to the shared LLC's own
        // demand-access counter.
        EXPECT_EQ(hits[0] + misses[0] + hits[1] + misses[1],
                  result.shared_mem.llc.accesses);
        // The aggregate keeps the shared LLC verbatim instead of
        // double-counting the per-core views.
        EXPECT_EQ(result.llc.accesses, result.shared_mem.llc.accesses);
        EXPECT_EQ(result.instructions,
                  result.core_results[0].instructions +
                      result.core_results[1].instructions);
        EXPECT_EQ(result.cycles,
                  std::max(result.core_results[0].cycles,
                           result.core_results[1].cycles));
    }
}

// A multi-core result — per-core sections, shared-memory counters, and
// the DRAM-occupancy histogram — survives the campaign-cache text
// format bit-exactly, and tampering with the multi-core tag rejects
// the record instead of silently loading a single-core shape.
TEST_F(MultiCoreDifferential, ResultTextAndJsonCarryTheSharedState)
{
    const auto traces = makeMixTraces(2);
    const SimResult original = runMix(SimConfig::industry(), traces);
    ASSERT_EQ(original.core_results.size(), 2u);

    std::ostringstream os;
    writeSimResultText(os, original);
    const std::string text = os.str();

    std::istringstream is(text);
    SimResult reloaded;
    ASSERT_TRUE(readSimResultText(is, reloaded));
    EXPECT_EQ(diffSimResults(original, reloaded), "");

    // The diff itself sees the shared state: a flipped per-core LLC
    // counter and a perturbed DRAM-depth histogram are both caught.
    SimResult tampered = reloaded;
    tampered.shared_mem.llc_core_hits[1] += 1;
    EXPECT_NE(diffSimResults(original, tampered), "");
    tampered = reloaded;
    tampered.core_results[1].instructions += 1;
    EXPECT_NE(diffSimResults(original, tampered), "");

    // A garbled multi-core tag rejects the whole record.
    std::string garbled = text;
    const std::size_t tag = garbled.find(" mc ");
    ASSERT_NE(tag, std::string::npos);
    garbled[tag + 1] = 'x';
    std::istringstream bad(garbled);
    SimResult rejected;
    EXPECT_FALSE(readSimResultText(bad, rejected));

    // The JSON shape exposes the same sections and stays parseable.
    const std::string json = simResultToJson(original);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, doc, error)) << error;
    EXPECT_NE(json.find("\"cores\":2"), std::string::npos);
    EXPECT_NE(json.find("\"shared_mem\""), std::string::npos);
    EXPECT_NE(json.find("\"core_results\""), std::string::npos);
    EXPECT_NE(json.find("\"dram_queue_depth\""), std::string::npos);

    // A single-core result keeps the legacy shape: no multi-core keys.
    const Trace solo =
        makeTrace("secret_srv12", synth::Archetype::kServer, 60'000);
    const SimResult single = runSingle(SimConfig::industry(), solo);
    const std::string single_json = simResultToJson(single);
    EXPECT_EQ(single_json.find("\"shared_mem\""), std::string::npos);
    EXPECT_EQ(single_json.find("\"core_results\""), std::string::npos);
}

} // namespace
} // namespace sipre
