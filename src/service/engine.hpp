/**
 * @file
 * The simulation engine behind the service: a fixed worker pool fed by
 * a bounded queue, with three result tiers in front of actual
 * simulation — an in-memory LRU cache, the on-disk campaign cache, and
 * an in-flight coalescing map so N concurrent identical requests run
 * exactly one simulation. Everything is observable through counters
 * and a latency histogram for the /metrics endpoint.
 */
#ifndef SIPRE_SERVICE_ENGINE_HPP
#define SIPRE_SERVICE_ENGINE_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/experiment.hpp"
#include "core/metadata_preload.hpp"
#include "core/sim_result.hpp"
#include "service/backend.hpp"
#include "service/request.hpp"
#include "service/result_cache.hpp"
#include "trace/trace.hpp"
#include "trace_obs/busy_profile.hpp"
#include "util/statistics.hpp"

namespace sipre::service
{

/** Engine sizing and cache layering knobs. */
struct EngineOptions
{
    unsigned workers = 2;            ///< simulation worker threads
    std::size_t queue_capacity = 8;  ///< distinct requests awaiting a worker
    std::size_t cache_capacity = 256;///< LRU result entries

    /**
     * When true, requests matching one of the standard campaign's six
     * configurations are answered from the campaign disk cache (loaded
     * once at construction) instead of re-simulating. Disk-served
     * results keep the campaign's config labels ("conservative-ftq2" /
     * "industry-ftq24"); all statistics are identical to a fresh run.
     */
    bool use_campaign_cache = false;
    CampaignOptions campaign;

    /**
     * When nonzero, freshly simulated results carry a windowed FTQ
     * scenario timeline (Simulator::enableScenarioTimeline) with this
     * window size in cycles. Cache-tier results (LRU, campaign disk)
     * keep whatever timeline they were stored with — typically none —
     * which is why this is not part of the request key.
     */
    std::uint32_t scenario_window = 0;
};

/**
 * What a direct caller supplies to runSimRequest() beyond the request
 * itself. The service passes only the scenario window; sipre_cli also
 * passes a trace it loaded and a prior run's result.
 */
struct RunInputs
{
    /**
     * Run this trace instead of synthesizing `request.workload`. Only
     * for one-core requests; not owned, must outlive the call.
     */
    const Trace *trace = nullptr;
    /**
     * A prior run's result feeding the `profile` distance provider
     * (AsmdbParams::external_profile). Not owned.
     */
    const SimResult *profile = nullptr;
    /** Nonzero: record the FTQ scenario timeline in windows this wide. */
    std::uint32_t scenario_window = 0;
    /** Arm the run's busy-time profile (RunRecord::core_busy). */
    bool busy_profile = false;
};

/**
 * What one runSimRequest() did besides producing its SimResult. The
 * AsmDB counters are summed across cores and filled only when the mode
 * ran a pipeline, so `base` runs leave them untouched; the engine folds
 * them into /metrics. The busy profiles cover any core count; the rest
 * describes a one-core run only (what sipre_cli prints around the
 * report) and stays empty on a co-run.
 */
struct RunRecord
{
    bool pipeline_ran = false;
    DistanceProviderKind provider = DistanceProviderKind::kStatic;
    std::uint64_t pipelines = 0;     ///< per-core pipeline executions
    std::uint64_t insertions = 0;    ///< planned prefetch insertions
    std::uint64_t tuned_targets = 0; ///< per-target distance overrides
    std::uint64_t eval_runs = 0;     ///< adaptive evaluation sims
    std::uint64_t distance_sum = 0;  ///< sum of global min distances

    /// Per-component busy time of each core's ticks and of the shared
    /// LLC/DRAM; filled only when RunInputs::busy_profile armed the run.
    std::vector<trace_obs::BusyProfile> core_busy;
    trace_obs::BusyProfile shared_busy;

    // One-core runs only.
    double static_bloat = 0.0;  ///< inserted / original static instrs
    double dynamic_bloat = 0.0; ///< inserted / original dynamic instrs
    /// Feedback mode: plan insertions per round, and the ones dropped.
    std::vector<std::size_t> insertions_per_round;
    std::uint64_t dropped_insertions = 0;
    /// Metadata mode: the preloader's counters.
    std::optional<MetadataPreloadStats> metadata;
};

/** Per-provider accumulation of RunRecord counters (for /metrics). */
struct ProviderCounters
{
    std::string name;
    std::uint64_t runs = 0;      ///< fresh requests using this provider
    std::uint64_t pipelines = 0;
    std::uint64_t insertions = 0;
    std::uint64_t tuned_targets = 0;
    std::uint64_t eval_runs = 0;
    std::uint64_t distance_sum = 0;
};

/** How a submit() call was resolved. */
enum class SubmitStatus : std::uint8_t {
    kOk,       ///< result attached (fresh, cached, or coalesced)
    kRejected, ///< bounded queue full — backpressure, retry later
    kShutdown, ///< engine is stopping; no new work accepted
    kFailed    ///< the simulation itself failed (see error)
};

/** Result of one blocking submit() call. */
struct SubmitOutcome
{
    SubmitStatus status = SubmitStatus::kFailed;
    std::shared_ptr<const SimResult> result; ///< valid when kOk
    std::string error;                       ///< set when not kOk
    bool cache_hit = false;  ///< served from the in-memory LRU
    bool disk_hit = false;   ///< served from the campaign disk cache
    bool coalesced = false;  ///< shared an in-flight simulation
    bool proxied = false;    ///< resolved by the result backend (peer)
    double latency_us = 0.0; ///< wall time inside submit()
};

/** Point-in-time snapshot of the engine's observable state. */
struct EngineStats
{
    std::uint64_t requests = 0;   ///< submit() calls (any outcome)
    std::uint64_t sim_runs = 0;   ///< simulations actually executed
    std::uint64_t cache_hits = 0; ///< LRU hits
    std::uint64_t disk_hits = 0;  ///< campaign-cache hits
    std::uint64_t coalesced = 0;  ///< requests that joined an in-flight run
    std::uint64_t proxied = 0;    ///< requests resolved by the backend
    std::uint64_t rejected = 0;   ///< backpressure rejections
    std::uint64_t failures = 0;   ///< simulations that threw
    std::uint64_t cache_evictions = 0;

    std::size_t queue_depth = 0;   ///< requests waiting for a worker
    std::size_t inflight = 0;      ///< queued + running distinct requests
    std::size_t workers_busy = 0;  ///< workers mid-simulation
    unsigned workers = 0;
    std::size_t queue_capacity = 0;
    std::size_t cache_entries = 0;
    std::size_t cache_capacity = 0;

    // Multi-core contention, accumulated over every fresh multi-core
    // simulation this engine executed (cache-tier hits contribute
    // nothing new). Vectors are indexed by core and sized to the
    // widest machine seen so far.
    std::uint64_t multicore_runs = 0;
    std::vector<std::uint64_t> mc_llc_core_hits;
    std::vector<std::uint64_t> mc_llc_core_misses;
    std::uint64_t mc_dram_depth_count = 0;
    std::uint64_t mc_dram_depth_sum = 0;
    std::uint64_t mc_dram_depth_p50 = 0; ///< log2-bucket upper bounds
    std::uint64_t mc_dram_depth_p90 = 0;
    std::uint64_t mc_dram_depth_p99 = 0;

    // Hardware instruction-prefetcher counters, accumulated by
    // component name over every fresh run that had one installed
    // (cache-tier hits contribute nothing new). Empty until the first
    // such run, so /metrics emits no hwpf series on an engine that
    // never prefetched.
    std::uint64_t hwpf_runs = 0;
    std::vector<HwPrefetchCounters> hwpf;

    // AsmDB distance-provider counters, accumulated by provider name
    // over every fresh AsmDB-family run (cache-tier hits contribute
    // nothing new). Empty until the first such run, so /metrics emits
    // no provider series on an engine that never ran the pipeline.
    std::uint64_t asmdb_runs = 0;
    std::vector<ProviderCounters> providers;

    /// Latency of completed (kOk) requests.
    LatencySummary::Snapshot latency;

    double
    cacheHitRate() const
    {
        const std::uint64_t lookups =
            cache_hits + disk_hits + coalesced + sim_runs + failures;
        return lookups == 0 ? 0.0
                            : static_cast<double>(cache_hits + disk_hits) /
                                  static_cast<double>(lookups);
    }
};

/**
 * Run one validated request to completion: the one place a SimMode
 * becomes simulations. Builds one trace per core (the caller's, or
 * each synthesized `effectiveMix()` entry rebased into its own address
 * space), applies the mode's AsmDB step to each core, and runs one
 * Simulator over all the cores, however many there are. sipre_cli,
 * the service workers and the job shards (through the engine) all run
 * through it. When `record` is non-null it receives what the run did
 * besides its result (see RunRecord).
 */
SimResult runSimRequest(const SimRequest &request,
                        const RunInputs &inputs = {},
                        RunRecord *record = nullptr);

/** See file comment. Thread-safe; submit() blocks until resolution. */
class SimulationEngine
{
  public:
    explicit SimulationEngine(const EngineOptions &options);
    ~SimulationEngine();

    SimulationEngine(const SimulationEngine &) = delete;
    SimulationEngine &operator=(const SimulationEngine &) = delete;

    /**
     * Resolve one request: LRU hit, campaign-cache hit, coalesce onto
     * an identical in-flight run, resolve through the result backend
     * (when one is installed and owns the key), or enqueue for a worker
     * (blocking until done). Returns kRejected immediately when the
     * queue is at capacity. `allow_proxy = false` skips the backend —
     * the cluster tier's /cluster/simulate handler uses it so a proxied
     * request can never bounce between peers.
     */
    SubmitOutcome submit(const SimRequest &request,
                         bool allow_proxy = true);

    /**
     * Install (or clear, with nullptr) the result backend consulted
     * after every cache tier misses. Not synchronized: set it before
     * the engine starts taking submit() traffic. The backend is not
     * owned and must outlive the last submit() call.
     */
    void setResultBackend(ResultBackend *backend) { backend_ = backend; }

    /**
     * Stop the engine. With `drain` (the default), queued requests are
     * still executed and their waiters get results; without it, queued
     * requests are aborted with kShutdown. Idempotent; also called by
     * the destructor.
     */
    void shutdown(bool drain = true);

    /** Snapshot counters, gauges, and latency percentiles. */
    EngineStats stats() const;

    /**
     * Persist the LRU contents (MRU-first) to `path` in the campaign
     * text format. Returns the number of entries written, or -1 on an
     * unwritable path.
     */
    long saveResultCache(const std::string &path) const;

    /** Load a previously saved result cache. Returns entries loaded. */
    long loadResultCache(const std::string &path);

  private:
    struct Job
    {
        std::string key;
        SimRequest request;
        /// Job id for trace attribution, captured from the submitting
        /// thread's trace_obs::currentJob() so the worker's sim span
        /// lands on the right job even across the queue hop. Coalesced
        /// submitters share the first submitter's attribution.
        std::uint64_t trace_job = 0;
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        bool aborted = false;
        bool proxied = false; ///< result came from the backend

        std::shared_ptr<const SimResult> result;
        std::string error;
    };

    void workerLoop();
    void resolveViaBackend(const std::shared_ptr<Job> &job);
    SubmitOutcome waitForJob(const std::shared_ptr<Job> &job,
                             bool coalesced,
                             std::chrono::steady_clock::time_point start);

    EngineOptions options_;
    ResultBackend *backend_ = nullptr;

    mutable std::mutex mutex_;
    std::condition_variable queue_cv_;
    std::deque<std::shared_ptr<Job>> queue_;
    std::unordered_map<std::string, std::shared_ptr<Job>> inflight_;
    LruCache<std::shared_ptr<const SimResult>> cache_;
    std::unordered_map<std::string, std::shared_ptr<const SimResult>>
        disk_cache_;
    bool stopping_ = false;

    // Counters (guarded by mutex_).
    std::uint64_t requests_ = 0;
    std::uint64_t sim_runs_ = 0;
    std::uint64_t cache_hits_ = 0;
    std::uint64_t disk_hits_ = 0;
    std::uint64_t coalesced_ = 0;
    std::uint64_t proxied_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t failures_ = 0;
    std::size_t workers_busy_ = 0;
    LatencySummary latency_; ///< completed (kOk) requests

    // Multi-core contention accumulators (guarded by mutex_), fed by
    // every fresh multi-core run's shared-memory section.
    std::uint64_t multicore_runs_ = 0;
    std::vector<std::uint64_t> mc_llc_hits_;
    std::vector<std::uint64_t> mc_llc_misses_;
    Log2Histogram mc_dram_depth_;

    // Hardware-prefetcher accumulators (guarded by mutex_), keyed by
    // component name, fed by every fresh run's hwpf section.
    std::uint64_t hwpf_runs_ = 0;
    std::vector<HwPrefetchCounters> hwpf_;

    // AsmDB distance-provider accumulators (guarded by mutex_), keyed
    // by provider name, fed by every fresh AsmDB-family run.
    std::uint64_t asmdb_runs_ = 0;
    std::vector<ProviderCounters> providers_;

    std::vector<std::thread> workers_;

    std::mutex shutdown_mutex_; ///< serializes shutdown() callers
    bool joined_ = false;
};

} // namespace sipre::service

#endif // SIPRE_SERVICE_ENGINE_HPP
