/**
 * @file
 * Differential test for the standard campaign's recipe: every record
 * runStandardCampaign produces must equal a fresh, uncached
 * runSimRequest of the canonical key the engine's campaign tier serves
 * it under, and its plan/bloat fields must equal a standalone
 * asmdb::runPipeline. The campaign reuses each baseline run as its
 * AsmDB profiling pass; this is what proves that shortcut changes no
 * result.
 */
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "asmdb/pipeline.hpp"
#include "core/experiment.hpp"
#include "core/result_compare.hpp"
#include "service/engine.hpp"
#include "trace/synth/workload.hpp"

namespace sipre
{
namespace
{

/** The engine's campaign-key table: request (mode, ftq) -> record. */
struct Mapping
{
    SimMode mode;
    std::uint32_t ftq;
    SimResult WorkloadRecord::*member;
};

constexpr Mapping kMappings[] = {
    {SimMode::kBase, 2, &WorkloadRecord::cons},
    {SimMode::kBase, 24, &WorkloadRecord::industry},
    {SimMode::kAsmdb, 2, &WorkloadRecord::asmdb_cons},
    {SimMode::kAsmdb, 24, &WorkloadRecord::asmdb_ind},
    {SimMode::kNoOverhead, 2, &WorkloadRecord::asmdb_cons_ideal},
    {SimMode::kNoOverhead, 24, &WorkloadRecord::asmdb_ind_ideal},
};

constexpr std::size_t kWorkloads = 3;
constexpr std::size_t kInstructions = 40'000;

class CampaignRecipe : public ::testing::TestWithParam<bool>
{
  protected:
    static CampaignResult
    runCampaign(bool fast_forward)
    {
        CampaignOptions options;
        options.workloads = kWorkloads;
        options.instructions = kInstructions;
        options.use_cache = false;
        options.fast_forward = fast_forward;
        return runStandardCampaign(options);
    }
};

TEST_P(CampaignRecipe, RecordsEqualFreshRequests)
{
    const CampaignResult campaign = runCampaign(GetParam());
    ASSERT_EQ(campaign.workloads.size(), kWorkloads);
    for (const WorkloadRecord &rec : campaign.workloads) {
        for (const Mapping &m : kMappings) {
            service::SimRequest request;
            request.workload = rec.name;
            request.instructions = kInstructions;
            request.ftq_entries = m.ftq;
            request.mode = m.mode;
            SimResult fresh = service::runSimRequest(request);
            // The campaign labels its FTQ2 runs with the conservative
            // preset's name; the engine's disk tier serves them so.
            const SimResult &recorded = rec.*m.member;
            if (m.ftq == 2) {
                EXPECT_EQ(recorded.config_label,
                          SimConfig::conservative().label);
                fresh.config_label = recorded.config_label;
            }
            EXPECT_EQ(diffSimResults(recorded, fresh), "")
                << rec.name << " " << request.canonicalKey();
        }
    }
}

TEST_P(CampaignRecipe, PlanFieldsEqualStandalonePipeline)
{
    const bool fast_forward = GetParam();
    const CampaignResult campaign = runCampaign(fast_forward);
    const auto suite = synth::cvp1LikeSuite(kWorkloads);
    ASSERT_EQ(campaign.workloads.size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const WorkloadRecord &rec = campaign.workloads[i];
        ASSERT_EQ(rec.name, suite[i].name);
        const Trace trace = synth::generateTrace(suite[i], kInstructions);
        SimConfig cons = SimConfig::conservative();
        SimConfig industry = SimConfig::industry();
        cons.fast_forward = fast_forward;
        industry.fast_forward = fast_forward;

        const auto art_cons = asmdb::runPipeline(trace, cons);
        EXPECT_EQ(rec.static_bloat_cons, art_cons.rewrite.staticBloat())
            << rec.name;
        EXPECT_EQ(rec.dynamic_bloat_cons, art_cons.rewrite.dynamicBloat())
            << rec.name;
        EXPECT_EQ(diffSimResults(rec.cons, art_cons.profile_run), "")
            << rec.name;

        const auto art_ind = asmdb::runPipeline(trace, industry);
        EXPECT_EQ(rec.static_bloat_ind, art_ind.rewrite.staticBloat())
            << rec.name;
        EXPECT_EQ(rec.dynamic_bloat_ind, art_ind.rewrite.dynamicBloat())
            << rec.name;
        EXPECT_EQ(rec.insertions_ind, art_ind.plan.insertions.size())
            << rec.name;
        EXPECT_EQ(rec.plan_min_distance_ind, art_ind.plan.min_distance)
            << rec.name;
        EXPECT_EQ(diffSimResults(rec.industry, art_ind.profile_run), "")
            << rec.name;
    }
}

INSTANTIATE_TEST_SUITE_P(FastForward, CampaignRecipe, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &loop) {
                             return loop.param ? std::string("Skip")
                                               : std::string("Reference");
                         });

} // namespace
} // namespace sipre
