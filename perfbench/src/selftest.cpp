/**
 * @file
 * Self-tests of the benchmark's own arithmetic on synthetic inputs:
 * the "at least 10 samples beyond" tail percentile, self time from
 * nested spans, layer-span coverage, the error-rate denominator, and
 * the helpers the correctness gate relies on. Exit status 0 when every check holds.
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"

namespace
{

using namespace perfbench;

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // descending: the rule must sort
        v.push_back(i);
    return v;
}

void
testTailPercentile()
{
    const TailPercentile t1000 = tailPercentile(oneTo(1000));
    check(t1000.qualified && t1000.percentile == 99 && near(t1000.value, 990) &&
              t1000.beyond == 10,
          "1000 samples: p99 = 990 with 10 beyond");
    const TailPercentile t100 = tailPercentile(oneTo(100));
    check(t100.qualified && t100.percentile == 90 && near(t100.value, 90) &&
              t100.beyond == 10,
          "100 samples: p99 has 1 beyond, so p90 = 90 with 10 beyond");
    const TailPercentile t20 = tailPercentile(oneTo(20));
    check(t20.qualified && t20.percentile == 50 && near(t20.value, 10) &&
              t20.beyond == 10,
          "20 samples: p50 = 10 is the highest with 10 beyond");
    const TailPercentile t15 = tailPercentile(oneTo(15));
    check(!t15.qualified && near(t15.value, 8),
          "15 samples: even p50 has only 7 beyond, median reported");
    const TailPercentile t1099 = tailPercentile(oneTo(1099));
    check(t1099.percentile == 99 && t1099.beyond == 10 &&
              near(t1099.value, 1089),
          "1099 samples: nearest rank ceil(0.99 n) = 1089");
    const TailPercentile t10 = tailPercentile(oneTo(10));
    check(!t10.qualified && near(t10.value, 5.5),
          "10 samples: no percentile qualifies, median reported");
    check(!tailPercentile({}).qualified && tailPercentile({}).samples == 0,
          "no samples: nothing qualifies");
}

void
testLatencySummary()
{
    std::vector<double> slow = oneTo(100);
    for (double &v : slow)
        v += 1000;
    const LatencySummary rounds =
        summarizeLatencies({oneTo(100), oneTo(100), slow});
    check(rounds.per_round && near(rounds.p50, 50.5) &&
              rounds.tail.percentile == 90 && near(rounds.tail.value, 90),
          "per-round tails: one disturbed round of three moves nothing");
    const LatencySummary pooled = summarizeLatencies({{5}, {1}, {3}});
    check(!pooled.per_round && near(pooled.p50, 3) &&
              !pooled.tail.qualified,
          "one operation per round: samples are pooled");
}

void
testSelfTime()
{
    // root [0,100): children a [10,40) and b [30,60) overlap, c [90,120)
    // runs past the root's end; a has a child g [15,25).
    const std::vector<Span> spans = {
        {"root", 0, 100, 1, 0, 0, 0},  {"a", 10, 40, 2, 1, 0, 0},
        {"b", 30, 60, 3, 1, 0, 0},     {"c", 90, 120, 4, 1, 0, 0},
        {"g", 15, 25, 5, 2, 0, 0},
    };
    const std::vector<double> self = selfTimes(spans);
    check(near(self[0], 40), "root self = 100 - |[10,60) u [90,100)| = 40");
    check(near(self[1], 20), "a self = 30 - 10 (child g) = 20");
    check(near(self[2], 30) && near(self[4], 10), "leaf self = duration");
    const auto totals = totalsByName(spans);
    check(totals.at("a").count == 1 && near(totals.at("a").self_us, 20),
          "totals by name carry self time");
}

void
testLayerCoverage()
{
    // round [0,100) holds items w1 [0,50) and w2 [50,100). w1's layer
    // children [5,15) and [10,30) overlap: 25 covered. w2 has a layer
    // child [60,70), a non-layer child [70,90) that covers nothing, and
    // a grandchild layer span inside its layer child. jobs.expand sits
    // directly under the round and is not an item.
    const std::vector<Span> spans = {
        {"sweep.round", 0, 100, 1, 0, 0, 0},
        {"jobs.shard", 0, 50, 2, 1, 0, 0},
        {"core.sim_run", 5, 15, 3, 2, 0, 0},
        {"trace.generate", 10, 30, 4, 2, 0, 0},
        {"jobs.shard", 50, 100, 5, 1, 0, 0},
        {"asmdb.pipeline", 60, 70, 6, 5, 0, 0},
        {"asmdb.profile", 61, 69, 7, 6, 0, 0},
        {"bench.glue", 70, 90, 8, 5, 0, 0},
        {"jobs.expand", 0, 1, 9, 1, 0, 0},
    };
    check(near(layerCoverage(spans, 1), 35.0 / 100.0),
          "layer coverage: (25 + 10) / (50 + 50) over the items");
    check(isLayerSpan("service.http_parse") && isLayerSpan("jobs.expand") &&
              !isLayerSpan("jobs.shard") && !isLayerSpan("campaign.workload"),
          "layer spans are the modules' public functions");
    check(near(layerCoverage(spans, 42), 0.0), "no items: coverage 0");
}

void
testErrorRate()
{
    OpCounts c;
    check(c.attempted() == 0 && near(c.errorRate(), 0.0),
          "no attempts: error rate 0");
    c.ok = 7;
    c.refused = 1;
    c.failed = 1;
    c.wrong = 1;
    check(c.attempted() == 10 && c.errors() == 3 && near(c.errorRate(), 0.3),
          "refusals, failures and wrong results all count: 3 / 10");
    OpCounts only_refused;
    only_refused.refused = 4;
    check(near(only_refused.errorRate(), 1.0),
          "a refused request is attempted and failed");
}

void
testHelpers()
{
    check(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5),
          "median of odd and even counts");
    const std::string body =
        "{\"a\":1,\"result\":{\"x\":\"}{\\\"\",\"y\":{\"z\":2}},\"b\":3}";
    const auto obj = jsonObjectField(body, "result");
    check(obj && *obj == "{\"x\":\"}{\\\"\",\"y\":{\"z\":2}}",
          "jsonObjectField skips braces inside strings");
    check(!jsonObjectField(body, "missing"), "jsonObjectField: absent field");
    check(hex64(fnv1a64("")) == "cbf29ce484222325" &&
              hex64(fnv1a64("a")) == "af63dc4c8601ec8c",
          "FNV-1a 64 reference values");
    check(near(scrapeMetric("x_total 3\nsipre_sim_runs_total 42\n",
                            "sipre_sim_runs_total"),
               42) &&
              near(scrapeMetric("sipre_sim_runs_total_x 1\n",
                                "sipre_sim_runs_total"),
                   0),
          "scrapeMetric matches whole names only");
}

} // namespace

int
main()
{
    testTailPercentile();
    testLatencySummary();
    testSelfTime();
    testLayerCoverage();
    testErrorRate();
    testHelpers();
    std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
                g_failures);
    return g_failures == 0 ? 0 : 1;
}
