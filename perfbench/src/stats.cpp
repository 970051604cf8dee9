#include "stats.hpp"

#include <algorithm>

namespace perfbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n % 2 == 1)
        return values[n / 2];
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

TailPercentile
tailPercentile(std::vector<double> samples, std::size_t min_beyond)
{
    TailPercentile tail;
    tail.samples = samples.size();
    if (samples.empty())
        return tail;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    for (unsigned p = 99; p >= 50; --p) {
        // Nearest rank, 1-based: ceil(p * n / 100) in integer arithmetic.
        std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
        rank = std::max<std::size_t>(rank, 1);
        if (n - rank >= min_beyond) {
            tail.percentile = p;
            tail.value = samples[rank - 1];
            tail.beyond = n - rank;
            tail.qualified = true;
            return tail;
        }
    }
    tail.percentile = 50;
    tail.value = median(samples);
    tail.beyond = n / 2;
    return tail;
}

LatencySummary
summarizeLatencies(const std::vector<std::vector<double>> &rounds,
                   std::size_t min_beyond)
{
    LatencySummary summary;
    summary.rounds = rounds.size();
    std::vector<double> medians, tails, pooled;
    std::vector<TailPercentile> per_round;
    for (const std::vector<double> &r : rounds) {
        per_round.push_back(tailPercentile(r, min_beyond));
        medians.push_back(median(r));
        tails.push_back(per_round.back().value);
        pooled.insert(pooled.end(), r.begin(), r.end());
    }
    summary.per_round =
        !rounds.empty() &&
        std::all_of(per_round.begin(), per_round.end(),
                    [](const TailPercentile &t) { return t.qualified; });
    if (!summary.per_round) {
        summary.p50 = median(pooled);
        summary.tail = tailPercentile(pooled, min_beyond);
        return summary;
    }
    summary.p50 = median(medians);
    // The lowest per-round percentile, so the label holds for every round.
    summary.tail = *std::min_element(
        per_round.begin(), per_round.end(),
        [](const TailPercentile &a, const TailPercentile &b) {
            return a.percentile < b.percentile;
        });
    summary.tail.value = median(tails);
    return summary;
}

double
OpCounts::errorRate() const
{
    const std::uint64_t total = attempted();
    return total == 0 ? 0.0
                      : static_cast<double>(errors()) /
                            static_cast<double>(total);
}

} // namespace perfbench
