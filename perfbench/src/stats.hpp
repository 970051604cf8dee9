/**
 * @file
 * The benchmark's own arithmetic: medians, the tail-percentile rule
 * and the error-rate denominator. Kept free of simulator types so the
 * self-test can check it on synthetic inputs.
 */
#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

/** Median of `values` (mean of the middle two for an even count); 0 when empty. */
double median(std::vector<double> values);

/** A tail percentile chosen by the "at least N samples beyond" rule. */
struct TailPercentile
{
    unsigned percentile = 0;  ///< integer percentile, e.g. 99
    double value = 0.0;       ///< the sample at that percentile
    std::size_t samples = 0;  ///< samples the percentile was taken over
    std::size_t beyond = 0;   ///< samples strictly past the chosen rank
    bool qualified = false;   ///< false: too few samples, value is the median
};

/**
 * The highest integer percentile p in [50, 99] whose nearest-rank
 * sample (rank ceil(p/100 * n), 1-based) has at least `min_beyond`
 * samples ranked after it. When no percentile qualifies (n too small)
 * the median is returned with `qualified` false.
 */
TailPercentile tailPercentile(std::vector<double> samples,
                              std::size_t min_beyond = 10);

/** Latency summary of a run made of rounds. */
struct LatencySummary
{
    double p50 = 0.0;
    TailPercentile tail;    ///< tail.samples = samples per round when per_round
    bool per_round = false; ///< medians over rounds (else pooled samples)
    std::size_t rounds = 0;
};

/**
 * When every round's tail qualifies on its own, p50 and the tail are
 * medians over rounds of the per-round values, so a disturbance that
 * covers fewer than half the rounds cannot move them. Otherwise (rounds
 * of one operation each, say) all samples are pooled.
 */
LatencySummary summarizeLatencies(
    const std::vector<std::vector<double>> &rounds,
    std::size_t min_beyond = 10);

/**
 * Operation outcomes of one run. Every attempted operation ends in
 * exactly one of ok / refused / failed / wrong; the error rate counts
 * refusals (HTTP 429), failures and wrong results against all attempts.
 */
struct OpCounts
{
    std::uint64_t ok = 0;
    std::uint64_t refused = 0;
    std::uint64_t failed = 0;
    std::uint64_t wrong = 0;

    std::uint64_t attempted() const { return ok + refused + failed + wrong; }
    std::uint64_t errors() const { return refused + failed + wrong; }
    double errorRate() const;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
