/**
 * @file
 * Request canonicalization: equivalent JSON spellings (field order,
 * whitespace, explicit defaults) must produce the same canonical key,
 * and every distinct knob combination in the full option space must
 * produce a distinct key.
 */
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/json_io.hpp"
#include "service/engine.hpp"
#include "service/request.hpp"
#include "trace/synth/workload.hpp"

using namespace sipre;
using namespace sipre::service;

namespace
{

SimRequest
mustParse(const std::string &body)
{
    SimRequest request;
    std::string error;
    EXPECT_TRUE(parseSimRequest(body, request, error)) << error;
    return request;
}

std::string
mustFail(const std::string &body)
{
    SimRequest request;
    std::string error;
    EXPECT_FALSE(parseSimRequest(body, request, error)) << body;
    return error;
}

} // namespace

TEST(ServiceRequest, OptionNamesRoundTripThroughParse)
{
    // Every canonical name a config can serialize with must parse back
    // to the same kind, or cached/serialized configs get rejected.
    for (const auto mode :
         {SimMode::kBase, SimMode::kAsmdb, SimMode::kNoOverhead,
          SimMode::kMetadata, SimMode::kFeedback})
        EXPECT_EQ(parseSimMode(simModeName(mode)), mode);
    for (const auto kind : {DirectionPredictorKind::kHashedPerceptron,
                            DirectionPredictorKind::kTageLite,
                            DirectionPredictorKind::kGshare,
                            DirectionPredictorKind::kBimodal,
                            DirectionPredictorKind::kLocal})
        EXPECT_EQ(parsePredictor(predictorName(kind)), kind);
    for (const auto kind :
         {IPrefetcherKind::kNone, IPrefetcherKind::kNextLine,
          IPrefetcherKind::kEipLite, IPrefetcherKind::kFdip,
          IPrefetcherKind::kMana, IPrefetcherKind::kFdipMana})
        EXPECT_EQ(parseHwPrefetcher(hwPrefetcherName(kind)), kind);
}

TEST(ServiceRequest, DefaultsAreFilledIn)
{
    const SimRequest minimal =
        mustParse(R"({"workload":"secret_srv12"})");
    const SimRequest explicit_defaults = mustParse(
        R"({"workload":"secret_srv12","instructions":2000000,"ftq":24,)"
        R"("mode":"base","predictor":"perceptron","hw_prefetcher":"none",)"
        R"("pfc":true,"ghr_filter":true,"wrong_path":true})");
    EXPECT_EQ(minimal.canonicalKey(), explicit_defaults.canonicalKey());
    EXPECT_EQ(requestHash(minimal), requestHash(explicit_defaults));
}

TEST(ServiceRequest, FieldOrderDoesNotMatter)
{
    const SimRequest a = mustParse(
        R"({"workload":"secret_srv12","ftq":2,"mode":"asmdb"})");
    const SimRequest b = mustParse(
        R"({"mode":"asmdb","workload":"secret_srv12","ftq":2})");
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());
}

TEST(ServiceRequest, WhitespaceDoesNotMatter)
{
    const SimRequest compact =
        mustParse(R"({"workload":"secret_srv12","ftq":8})");
    const SimRequest spaced = mustParse(
        "{\n  \"workload\" :\t\"secret_srv12\" ,\r\n  \"ftq\" : 8\n}");
    EXPECT_EQ(compact.canonicalKey(), spaced.canonicalKey());
}

TEST(ServiceRequest, RequestJsonRoundTripsToSameKey)
{
    SimRequest request;
    request.workload = "secret_crypto52";
    request.instructions = 123'000;
    request.ftq_entries = 6;
    request.mode = SimMode::kNoOverhead;
    request.predictor = DirectionPredictorKind::kTageLite;
    request.hw_prefetcher = IPrefetcherKind::kNextLine;
    request.pfc = false;
    const SimRequest reparsed = mustParse(requestToJson(request));
    EXPECT_EQ(request.canonicalKey(), reparsed.canonicalKey());
}

TEST(ServiceRequest, RejectionsAreSpecific)
{
    EXPECT_NE(mustFail("{"), "");
    EXPECT_NE(mustFail("[1,2]").find("object"), std::string::npos);
    EXPECT_NE(mustFail(R"({"ftq":4})").find("workload"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12","bogus":1})")
                  .find("unknown field 'bogus'"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"nope_wl"})")
                  .find("unknown workload"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12","mode":"x"})")
                  .find("unknown mode"),
              std::string::npos);
    EXPECT_NE(
        mustFail(R"({"workload":"secret_srv12","predictor":"x"})")
            .find("unknown predictor"),
        std::string::npos);
    EXPECT_NE(
        mustFail(R"({"workload":"secret_srv12","hw_prefetcher":"x"})")
            .find("unknown hw_prefetcher"),
        std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12","ftq":0})")
                  .find("out of range"),
              std::string::npos);
    EXPECT_NE(
        mustFail(R"({"workload":"secret_srv12","instructions":10})")
            .find("out of range"),
        std::string::npos);
    EXPECT_NE(
        mustFail(R"({"workload":"secret_srv12","instructions":1.5})")
            .find("integer"),
        std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12","pfc":"yes"})")
                  .find("boolean"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12"} trailing)")
                  .find("invalid JSON"),
              std::string::npos);
}

// The distance provider only steers the AsmDB pipeline, so naming a
// non-static one on a base run is refused instead of silently ignored.
TEST(ServiceRequest, BaseModeRefusesANonStaticProvider)
{
    for (const char *provider : {"profile", "adaptive"}) {
        const std::string body =
            std::string(R"({"workload":"secret_srv12","distance_provider":")") +
            provider + "\"}";
        EXPECT_NE(mustFail(body).find("distance_provider"), std::string::npos)
            << provider;
        EXPECT_NE(mustFail(R"({"mode":"base",)" + body.substr(1))
                      .find("mode 'base'"),
                  std::string::npos)
            << provider;
        const SimRequest asmdb = mustParse(R"({"mode":"asmdb",)" +
                                           body.substr(1));
        EXPECT_EQ(asmdb.mode, SimMode::kAsmdb);
    }
    EXPECT_EQ(mustParse(R"({"workload":"secret_srv12",)"
                        R"("distance_provider":"static"})")
                  .canonicalKey(),
              mustParse(R"({"workload":"secret_srv12"})").canonicalKey());
}

TEST(ServiceRequest, CoresAndMixSpellingsShareOneCanonicalForm)
{
    // A plain workload defaults to one core.
    const SimRequest single = mustParse(R"({"workload":"secret_srv12"})");
    EXPECT_EQ(single.cores, 1u);
    EXPECT_TRUE(single.mix.empty());

    // `cores` with a workload is a homogeneous co-run; effectiveMix()
    // spells out the per-core assignment.
    const SimRequest homog =
        mustParse(R"({"workload":"secret_srv12","cores":4})");
    EXPECT_EQ(homog.cores, 4u);
    EXPECT_TRUE(homog.mix.empty());
    EXPECT_EQ(homog.effectiveMix(),
              (std::vector<std::string>(4, "secret_srv12")));

    // A homogeneous mix normalizes to the workload+cores spelling, so
    // both share a canonical key (one cache entry).
    const SimRequest spelled = mustParse(
        R"({"mix":["secret_srv12","secret_srv12","secret_srv12",)"
        R"("secret_srv12"]})");
    EXPECT_TRUE(spelled.mix.empty());
    EXPECT_EQ(spelled.canonicalKey(), homog.canonicalKey());

    // A heterogeneous mix keeps its order — the key separates
    // srv12+int_124 from int_124+srv12 (different core assignments).
    const SimRequest ab =
        mustParse(R"({"mix":["secret_srv12","secret_int_124"]})");
    const SimRequest ba =
        mustParse(R"({"mix":["secret_int_124","secret_srv12"]})");
    EXPECT_EQ(ab.cores, 2u);
    EXPECT_EQ(ab.workload, "secret_srv12");
    EXPECT_NE(ab.canonicalKey(), ba.canonicalKey());

    // And both spellings survive the JSON round trip key-intact.
    EXPECT_EQ(mustParse(requestToJson(homog)).canonicalKey(),
              homog.canonicalKey());
    EXPECT_EQ(mustParse(requestToJson(ab)).canonicalKey(),
              ab.canonicalKey());
}

TEST(ServiceRequest, CoresAndMixRejectionsAreSpecific)
{
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12","cores":0})")
                  .find("out of range"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12","cores":9})")
                  .find("out of range"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12",)"
                       R"("mix":["secret_int_124"]})")
                  .find("mutually exclusive"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"mix":["secret_srv12","secret_int_124"],)"
                       R"("cores":3})")
                  .find("contradicts"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"mix":[]})").find("mix"), std::string::npos);
    EXPECT_NE(mustFail(R"({"mix":["secret_srv12","nope_wl"]})")
                  .find("unknown workload"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"mix":"secret_srv12"})").find("array"),
              std::string::npos);
    // `cores` matching the mix length is redundant but consistent, so
    // it parses.
    const SimRequest consistent =
        mustParse(R"({"mix":["secret_srv12","secret_int_124"],)"
                  R"("cores":2})");
    EXPECT_EQ(consistent.cores, 2u);
}

// Regression: the multi-core artifact modes store a pointer to each
// core's rewritten trace while still filling the artifact vector; a
// vector grow mid-loop used to dangle every earlier core's pointer,
// leaving core 0 with an empty trace (0 instructions, blank name).
// Three cores force at least two growth opportunities.
TEST(ServiceRequest, RewrittenTraceModesRunEveryCoreOfAMix)
{
    for (const char *mode : {"asmdb", "feedback"}) {
        const SimRequest request = mustParse(
            std::string(R"({"mix":["secret_srv12","secret_int_124",)"
                        R"("secret_crypto52"],"instructions":20000,)"
                        R"("mode":")") +
            mode + "\"}");
        const SimResult result = runSimRequest(request);
        ASSERT_EQ(result.core_results.size(), 3u) << mode;
        for (std::size_t i = 0; i < result.core_results.size(); ++i) {
            const SimResult &core = result.core_results[i];
            EXPECT_GT(core.instructions, 0u) << mode << " core " << i;
            EXPECT_GT(core.effective_instructions, 0u)
                << mode << " core " << i;
            EXPECT_FALSE(core.workload.empty()) << mode << " core " << i;
        }
    }
}

TEST(ServiceRequest, FullOptionSpaceSweepHasNoCollisions)
{
    const auto suite = synth::cvp1LikeSuite();
    const SimMode modes[] = {SimMode::kBase, SimMode::kAsmdb,
                             SimMode::kNoOverhead, SimMode::kMetadata,
                             SimMode::kFeedback};
    const DirectionPredictorKind predictors[] = {
        DirectionPredictorKind::kHashedPerceptron,
        DirectionPredictorKind::kTageLite,
        DirectionPredictorKind::kGshare,
        DirectionPredictorKind::kBimodal,
        DirectionPredictorKind::kLocal};
    const IPrefetcherKind prefetchers[] = {IPrefetcherKind::kNone,
                                           IPrefetcherKind::kNextLine,
                                           IPrefetcherKind::kEipLite};
    const std::uint32_t ftqs[] = {2, 8, 24};
    const std::uint64_t lengths[] = {30'000, 2'000'000};

    std::set<std::string> keys;
    std::size_t combinations = 0;
    for (const auto &spec : suite) {
        for (const auto mode : modes) {
            for (const auto predictor : predictors) {
                for (const auto prefetcher : prefetchers) {
                    for (const auto ftq : ftqs) {
                        for (const auto length : lengths) {
                            for (int toggles = 0; toggles < 8;
                                 ++toggles) {
                                SimRequest request;
                                request.workload = spec.name;
                                request.instructions = length;
                                request.ftq_entries = ftq;
                                request.mode = mode;
                                request.predictor = predictor;
                                request.hw_prefetcher = prefetcher;
                                request.pfc = (toggles & 1) != 0;
                                request.ghr_filter = (toggles & 2) != 0;
                                request.wrong_path = (toggles & 4) != 0;
                                keys.insert(request.canonicalKey());
                                ++combinations;
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(keys.size(), combinations);
    // 48 workloads x 5 modes x 5 predictors x 3 prefetchers x 3 FTQ
    // depths x 2 lengths x 8 toggle combinations.
    EXPECT_EQ(combinations, 48u * 5 * 5 * 3 * 3 * 2 * 8);
}

TEST(ServiceRequest, ToConfigMatchesCliSemantics)
{
    // Default depth keeps the industry preset label, also when spelled
    // out (sipre_cli fills a SimRequest too, so `--ftq 24` runs as
    // industry-ftq24); any other depth is labeled ftqN.
    const SimRequest defaults =
        mustParse(R"({"workload":"secret_srv12"})");
    EXPECT_EQ(simConfigToJson(defaults.toConfig()),
              simConfigToJson(SimConfig::industry()));

    const SimRequest shallow =
        mustParse(R"({"workload":"secret_srv12","ftq":2})");
    const SimConfig config = shallow.toConfig();
    EXPECT_EQ(config.label, "ftq2");
    EXPECT_EQ(config.frontend.ftq_entries, 2u);

    const SimRequest knobs = mustParse(
        R"({"workload":"secret_srv12","predictor":"gshare",)"
        R"("hw_prefetcher":"eip","pfc":false,"ghr_filter":false,)"
        R"("wrong_path":false})");
    const SimConfig knob_config = knobs.toConfig();
    EXPECT_EQ(knob_config.frontend.branch.direction,
              DirectionPredictorKind::kGshare);
    EXPECT_EQ(knob_config.memory.l1i_prefetcher,
              IPrefetcherKind::kEipLite);
    EXPECT_FALSE(knob_config.frontend.pfc);
    EXPECT_FALSE(knob_config.frontend.branch.ghr_filter_btb_miss);
    EXPECT_FALSE(knob_config.frontend.wrong_path_fetch);
}

TEST(ServiceRequest, DistinctKnobsChangeTheKey)
{
    const SimRequest base = mustParse(R"({"workload":"secret_srv12"})");
    const char *variants[] = {
        R"({"workload":"public_srv_60"})",
        R"({"workload":"secret_srv12","instructions":30000})",
        R"({"workload":"secret_srv12","ftq":2})",
        R"({"workload":"secret_srv12","mode":"asmdb"})",
        R"({"workload":"secret_srv12","predictor":"tage"})",
        R"({"workload":"secret_srv12","hw_prefetcher":"eip"})",
        R"({"workload":"secret_srv12","pfc":false})",
        R"({"workload":"secret_srv12","ghr_filter":false})",
        R"({"workload":"secret_srv12","wrong_path":false})",
    };
    for (const char *variant : variants)
        EXPECT_NE(base.canonicalKey(), mustParse(variant).canonicalKey())
            << variant;
}
