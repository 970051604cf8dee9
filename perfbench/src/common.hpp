/**
 * @file
 * What the three workloads share: run options, the seeded generator,
 * the report every run prints, result checking against the golden
 * digests, a keep-alive HTTP client, an in-process service stack, and
 * the hand-driven layer calls the traced runs time span by span.
 */
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asmdb/pipeline.hpp"
#include "core/config.hpp"
#include "core/sim_result.hpp"
#include "golden.hpp"
#include "jobs/http.hpp"
#include "jobs/manager.hpp"
#include "service/engine.hpp"
#include "service/http.hpp"
#include "service/request.hpp"
#include "service/server.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "trace/synth/workload.hpp"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string golden = "perfbench/golden.txt";
    std::string out_dir = ".perfbench_out";
    std::string git_commit = "unknown";
    std::string source_digest = "unknown";
};

/** Seconds on the steady clock. */
double nowS();

/** SplitMix64: the benchmark's only source of input randomness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    template <class T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state_;
};

/** Threads and client connections a workload may use: min(4, nproc). */
unsigned benchThreads();

/** Peak resident set of this process (VmHWM), in MB. */
double peakRssMb();

/**
 * Reset VmHWM to the current resident set (/proc/self/clear_refs), so
 * the next peakRssMb() is the peak since this call. Best effort: on a
 * kernel that refuses, the peak stays the process-lifetime one.
 */
void resetPeakRss();

/** A spec from the 48-workload suite by name (throws if unknown). */
const sipre::synth::WorkloadSpec &suiteSpec(const std::string &name);

/** Golden key of one request: every knob the benchmark varies. */
std::string requestKey(const sipre::service::SimRequest &request);

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note; ///< sample count / percentile, printed beside it
};

/** Everything one run prints. */
struct Report
{
    std::vector<Metric> metrics;
    OpCounts counts;
    std::vector<std::string> problems; ///< first few correctness failures
    std::vector<std::string> notes;    ///< extra human-readable lines
    std::mutex problems_mutex;         ///< problem() is called from workers

    void metric(const std::string &name, double value,
                const std::string &unit, const std::string &note = "");
    /** Record a wrong or failed delivery (does not bump counts). */
    void problem(const std::string &what);
    bool correct() const { return problems.empty(); }
};

/** Per-run state handed to each workload. */
struct Context
{
    Options options;
    Report report;
    double process_start = 0.0;
    std::string scratch_dir; ///< removed at exit
    std::atomic<std::uint64_t> scratch_seq{0};

    /** A fresh empty directory under scratch_dir. */
    std::string freshDir(const std::string &stem);

    /**
     * The golden digests, loaded from options.golden on first use, so
     * the load falls into no set-up and no timed phase. Throws
     * std::runtime_error on a missing or garbled file.
     */
    const GoldenTable &golden();

  private:
    GoldenTable golden_;
    std::once_flag golden_once_;
};

/**
 * Check one delivered result against the golden digests. `text` and
 * `json` may be empty when the result was not delivered in that form.
 * Returns true on a match; a mismatch or missing row is recorded as a
 * problem.
 */
bool checkDigests(Context &ctx, const std::string &key,
                  std::string_view text, std::string_view json);

/**
 * The JSON object value of `"field":{...}` in `body` (a balanced-brace
 * scan that skips string contents), or nullopt.
 */
std::optional<std::string_view> jsonObjectField(std::string_view body,
                                                std::string_view field,
                                                std::size_t from = 0);

/** Value of an unlabelled Prometheus sample `name`, or 0 when absent. */
double scrapeMetric(const std::string &metrics_text, const std::string &name);

/** One keep-alive loopback connection. */
class HttpConn
{
  public:
    explicit HttpConn(std::uint16_t port);
    ~HttpConn();
    HttpConn(const HttpConn &) = delete;
    HttpConn &operator=(const HttpConn &) = delete;

    /** One request/response exchange; reconnects once if the peer closed. */
    bool exchange(const std::string &method, const std::string &target,
                  const std::string &body,
                  sipre::service::http::Response &response,
                  std::string &error);

  private:
    bool connect(std::string &error);
    std::uint16_t port_;
    int fd_ = -1;
};

/**
 * The daemon's stack in-process: engine, optional job manager with a
 * persistent store, and the HTTP server on an ephemeral loopback port.
 */
class ServiceStack
{
  public:
    /** `store_dir` empty = no job subsystem. */
    ServiceStack(unsigned workers, const std::string &store_dir);
    ~ServiceStack();
    ServiceStack(const ServiceStack &) = delete;
    ServiceStack &operator=(const ServiceStack &) = delete;

    bool start(std::string &error);
    std::uint16_t port() const { return server_->port(); }
    void stop();

  private:
    std::unique_ptr<sipre::service::SimulationEngine> engine_;
    std::unique_ptr<sipre::jobs::JobManager> jobs_;
    std::unique_ptr<sipre::jobs::JobHttpHandler> job_handler_;
    std::unique_ptr<sipre::service::ServiceServer> server_;
};

/** Engine sizing shared by the service stack and direct replays. */
sipre::service::EngineOptions engineOptions(unsigned workers);

// ------------------------------------------- hand-driven layer calls
//
// Each wraps one public entry point in a span named after its module
// and, while spans are being recorded, accumulates the work it did, so
// the traced runs can report time per simulated cycle and bytes per
// serialization.

struct LayerCounters
{
    std::atomic<std::uint64_t> sim_cycles{0};
    std::atomic<std::uint64_t> sim_instructions{0};
    std::atomic<std::uint64_t> mc_cycles{0};
    std::atomic<std::uint64_t> json_bytes{0};
    std::atomic<std::uint64_t> text_bytes{0};
};
LayerCounters &layerCounters();

/** synth::generateTrace under a trace.generate span. */
sipre::Trace tracedGenerate(const std::string &workload,
                            std::uint64_t instructions);

/** Simulator::run (optionally with no-overhead triggers or metadata). */
sipre::SimResult tracedSim(const sipre::SimConfig &config,
                           const sipre::Trace &trace,
                           const sipre::SwPrefetchTriggers *triggers =
                               nullptr,
                           const sipre::asmdb::AsmdbPlan *metadata_plan =
                               nullptr);

/**
 * The AsmDB pipeline stage by stage, in runPipeline's order, each stage
 * under its own span inside an asmdb.pipeline span: profile sim with
 * the miss hook, Cfg::build, provider decide + buildPlan, CodeLayout +
 * rewriteTrace + buildTriggers. Static distance provider.
 */
sipre::asmdb::AsmdbArtifacts tracedPipeline(const sipre::Trace &trace,
                                            const sipre::SimConfig &config);

/**
 * True when two pipeline outputs agree exactly: decision, plan (every
 * insertion field), rewrite counters and trace length, and triggers.
 */
bool sameArtifacts(const sipre::asmdb::AsmdbArtifacts &a,
                   const sipre::asmdb::AsmdbArtifacts &b);

/** simResultToJson / writeSimResultText under core.json / core.text spans. */
std::string tracedJson(const sipre::SimResult &result);
std::string tracedText(const sipre::SimResult &result);

/**
 * A request run by hand through the layers, mirroring runSimRequest's
 * per-mode recipe (single- and multi-core).
 */
sipre::SimResult handDriven(const sipre::service::SimRequest &request);

/** Per-layer values that come from /metrics or one-off measurements. */
struct LayerExtras
{
    double pipelines_per_shard = 0.0;
    double checkpoint_ms = 0.0;
    double record_bytes = 0.0;
    double hit_ratio = 0.0;
    double coalesced = 0.0;
    double rejected = 0.0;
    double sim_runs = 0.0;
    double untraced_s = 0.0; ///< the decomposed round, spans off
    double traced_s = 0.0;   ///< the same round, spans on
};

/**
 * Every per-layer metric, from the spans recorded so far, the layer
 * counters and `extras`. Layers the run never called report zero calls
 * and zero time. `root` is the traced decomposed round's root span:
 * the span coverage is layerCoverage over its items, and the tracing
 * overhead is (traced_s - untraced_s) / untraced_s.
 */
void emitLayerMetrics(Report &report, const std::vector<Span> &spans,
                      std::uint64_t root, const LayerExtras &extras);

/** Run `fn(i)` for i in [0, n) on `threads` threads (work-stealing index). */
void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)> &fn);

/** The end-to-end metrics common to all workloads, from per-round samples. */
struct RoundSample
{
    double setup_s = -1.0; ///< the program's set-up; < 0 = none this round
    double wall_s = 0.0;
    double results = 0.0;      ///< delivered results in the round
    double instructions = 0.0; ///< retired instructions in them
    double peak_rss_mb = 0.0;  ///< peak resident set during the round
    std::vector<double> latencies_ms; ///< each operation's latency
};
void emitEndToEnd(Report &report, const std::vector<RoundSample> &rounds);

/**
 * The untraced run: repeat rounds until ctx.options.seconds of timed
 * work is done, then emit the end-to-end metrics. Each round resets the
 * peak-RSS mark, then calls `round(index, sample)` to do and time its
 * set-up, run the timed batch and check it. setup_s is the median over
 * the rounds that had a set-up.
 */
void runRounds(Context &ctx,
               const std::function<void(std::size_t, RoundSample &)> &round);

/**
 * Golden digests of `requests`, each computed through runSimRequest and
 * cross-checked against the layer-by-layer recipe (handDriven); throws
 * when the two disagree.
 */
void addRequestDigests(GoldenTable &golden,
                       const std::vector<sipre::service::SimRequest> &requests,
                       unsigned threads);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
