/**
 * @file
 * `campaign`: the paper's own path. runStandardCampaign, campaign cache
 * bypassed, over the suite's first eight workloads (one srv, three
 * crypto, four int), on up to four threads. runStandardCampaign takes
 * only a prefix length, so the seed cannot choose the subset; it is
 * recorded but the inputs are the same for every seed.
 */
#include <stdexcept>

#include "core/experiment.hpp"
#include "workloads.hpp"

namespace perfbench
{

namespace
{

constexpr std::size_t kWorkloads = 8;
constexpr std::uint64_t kInstructions = 100'000;

sipre::CampaignOptions
campaignOptions()
{
    sipre::CampaignOptions options;
    options.workloads = kWorkloads;
    options.instructions = kInstructions;
    options.threads = benchThreads();
    options.use_cache = false;
    return options;
}

std::vector<std::string>
subsetNames()
{
    std::vector<std::string> names;
    bool archetype_seen[3] = {false, false, false};
    for (const auto &spec : sipre::synth::cvp1LikeSuite(kWorkloads)) {
        names.push_back(spec.name);
        archetype_seen[static_cast<int>(spec.archetype)] = true;
    }
    if (!(archetype_seen[0] && archetype_seen[1] && archetype_seen[2]))
        throw std::runtime_error(
            "campaign subset no longer mixes srv, int and crypto");
    return names;
}

/** One workload's record, built by hand through the layers. */
struct Decomposed
{
    sipre::WorkloadRecord record;
    sipre::asmdb::AsmdbArtifacts cons;
    sipre::asmdb::AsmdbArtifacts industry;
};

/** runStandardCampaign's per-workload recipe, one layer call at a time. */
Decomposed
decompose(const std::string &name, std::uint64_t parent)
{
    ScopedSpan span("campaign.workload", 0, parent);
    Decomposed d;
    sipre::WorkloadRecord &rec = d.record;
    rec.name = name;
    const sipre::Trace trace = tracedGenerate(name, kInstructions);
    const sipre::SimConfig cons = sipre::SimConfig::conservative();
    const sipre::SimConfig industry = sipre::SimConfig::industry();
    rec.cons = tracedSim(cons, trace);
    rec.industry = tracedSim(industry, trace);

    d.cons = tracedPipeline(trace, cons);
    rec.static_bloat_cons = d.cons.rewrite.staticBloat();
    rec.dynamic_bloat_cons = d.cons.rewrite.dynamicBloat();
    rec.asmdb_cons = tracedSim(cons, d.cons.rewrite.trace);
    rec.asmdb_cons_ideal = tracedSim(cons, trace, &d.cons.triggers);

    d.industry = tracedPipeline(trace, industry);
    rec.static_bloat_ind = d.industry.rewrite.staticBloat();
    rec.dynamic_bloat_ind = d.industry.rewrite.dynamicBloat();
    rec.insertions_ind = d.industry.plan.insertions.size();
    rec.plan_min_distance_ind = d.industry.plan.min_distance;
    rec.asmdb_ind = tracedSim(industry, d.industry.rewrite.trace);
    rec.asmdb_ind_ideal = tracedSim(industry, trace, &d.industry.triggers);
    return d;
}

constexpr std::size_t kResultsPerRecord = 6;

/** Check every delivered record; returns the retired instructions in them. */
double
verifyRecords(Context &ctx, const std::vector<sipre::WorkloadRecord> &records,
              const std::vector<std::string> &names)
{
    OpCounts &counts = ctx.report.counts;
    if (records.size() != names.size()) {
        ctx.report.problem("campaign returned " +
                           std::to_string(records.size()) + " records, not " +
                           std::to_string(names.size()));
        counts.failed += kResultsPerRecord * names.size();
        return 0.0;
    }
    double instructions = 0.0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const sipre::WorkloadRecord &rec = records[i];
        const bool ok =
            rec.name == names[i] &&
            checkDigests(ctx, campaignKey(names[i], kInstructions),
                         recordText(rec), {});
        (ok ? counts.ok : counts.wrong) += kResultsPerRecord;
        for (const sipre::SimResult *r :
             {&rec.cons, &rec.industry, &rec.asmdb_cons, &rec.asmdb_cons_ideal,
              &rec.asmdb_ind, &rec.asmdb_ind_ideal})
            instructions += static_cast<double>(r->instructions);
    }
    return instructions;
}

} // namespace

void
runCampaign(Context &ctx)
{
    const sipre::CampaignOptions options = campaignOptions();
    const std::vector<std::string> names = subsetNames();
    if (!ctx.options.trace) {
        // The campaign path has no set-up step of its own: setup_s is
        // the one span from process start to the first campaign call.
        runRounds(ctx, [&](std::size_t index, RoundSample &round) {
            const double t1 = nowS();
            const sipre::CampaignResult result =
                sipre::runStandardCampaign(options);
            const double t2 = nowS();
            round.peak_rss_mb = peakRssMb();
            if (index == 0)
                round.setup_s = t1 - ctx.process_start;
            round.wall_s = t2 - t1;
            round.results =
                static_cast<double>(kResultsPerRecord * result.workloads.size());
            round.instructions = verifyRecords(ctx, result.workloads, names);
            round.latencies_ms.push_back(round.wall_s * 1e3);
        });
        return;
    }

    // The reference, which also warms the process up.
    const sipre::CampaignResult reference =
        sipre::runStandardCampaign(options);
    verifyRecords(ctx, reference.workloads, names);

    // The decomposed round with spans off, then on: the tracing
    // overhead is the difference between the two.
    SpanRecorder &recorder = SpanRecorder::instance();
    LayerExtras extras;
    std::vector<Decomposed> parts;
    std::uint64_t root_id = 0;
    for (const bool traced : {false, true}) {
        parts.assign(names.size(), Decomposed{});
        recorder.enable(traced);
        const double t0 = nowS();
        {
            ScopedSpan root("campaign.round");
            root_id = root.id();
            parallelFor(names.size(), options.threads, [&](std::size_t i) {
                parts[i] = decompose(names[i], root_id);
            });
        }
        (traced ? extras.traced_s : extras.untraced_s) = nowS() - t0;
        recorder.enable(false);

        std::vector<sipre::WorkloadRecord> records;
        for (const Decomposed &d : parts)
            records.push_back(d.record);
        verifyRecords(ctx, records, names);
        for (std::size_t i = 0;
             i < records.size() && i < reference.workloads.size(); ++i) {
            if (recordText(records[i]) != recordText(reference.workloads[i]))
                ctx.report.problem("decomposed record differs from "
                                   "runStandardCampaign for " + names[i]);
        }
    }

    // Stage-decomposition check: the hand-driven stages must reproduce
    // asmdb::runPipeline's artifacts exactly.
    std::vector<int> stage_ok(names.size(), 0);
    parallelFor(names.size(), options.threads, [&](std::size_t i) {
        const sipre::Trace trace =
            sipre::synth::generateTrace(suiteSpec(names[i]), kInstructions);
        stage_ok[i] =
            sameArtifacts(sipre::asmdb::runPipeline(
                              trace, sipre::SimConfig::conservative()),
                          parts[i].cons) &&
            sameArtifacts(
                sipre::asmdb::runPipeline(trace, sipre::SimConfig::industry()),
                parts[i].industry);
    });
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (!stage_ok[i])
            ctx.report.problem("hand-driven AsmDB stages differ from "
                               "runPipeline for " + names[i]);
    }
    emitLayerMetrics(ctx.report, recorder.spans(), root_id, extras);
}

void
goldenCampaign(GoldenTable &golden, unsigned threads)
{
    const std::vector<std::string> names = subsetNames();
    std::vector<sipre::WorkloadRecord> records(names.size());
    parallelFor(names.size(), threads, [&](std::size_t i) {
        records[i] = decompose(names[i], 0).record;
    });
    const sipre::CampaignResult campaign =
        sipre::runStandardCampaign(campaignOptions());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string text = recordText(records[i]);
        if (i >= campaign.workloads.size() ||
            recordText(campaign.workloads[i]) != text)
            throw std::runtime_error(
                "runStandardCampaign disagrees with the layer-by-layer "
                "recipe for " + names[i]);
        golden.put(campaignKey(names[i], kInstructions),
                   GoldenDigests{hex64(fnv1a64(text)), "-"});
    }
}

} // namespace perfbench
