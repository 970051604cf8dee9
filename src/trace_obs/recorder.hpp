/**
 * @file
 * Low-overhead hierarchical tracing for the whole stack: a process-wide
 * span recorder built from lock-free per-thread ring buffers, exported
 * as Chrome trace-event JSON (loadable in Perfetto or chrome://tracing).
 *
 * Design contract (mirrors util/fault):
 *  - Disabled is the default and costs one relaxed atomic load per
 *    Span construction — no clock read, no allocation, no branch into
 *    cold code. bench/bench_trace_overhead puts a number on it.
 *  - Each thread appends to its own fixed-capacity buffer with a
 *    release-published count, so writers never take a lock and an
 *    exporter on another thread only ever reads fully-written,
 *    immutable entries. A full buffer drops new events (counted) rather
 *    than overwriting old ones — overwrite would let an exporter read a
 *    slot mid-rewrite.
 *  - Spans are request/shard/run granularity, never per-cycle; the
 *    per-cycle scenario attribution lives in the simulator's windowed
 *    ScenarioTimeline (frontend/scenario_timeline.hpp), which joins the
 *    trace as counter tracks at export time.
 *
 * Enabled via `--trace` on the tools or the SIPRE_TRACE environment
 * variable ("1"/"on" for the default buffer size, a number > 1 for an
 * explicit per-thread event capacity).
 */
#ifndef SIPRE_TRACE_OBS_RECORDER_HPP
#define SIPRE_TRACE_OBS_RECORDER_HPP

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sipre::trace_obs
{

/** Argument slots per event (name/value pairs, truncated to fit). */
inline constexpr std::size_t kMaxArgs = 3;

/**
 * One completed span, fixed-size so the hot path never allocates.
 * Strings are NUL-terminated and silently truncated on copy.
 */
struct TraceEvent
{
    char name[40];
    char cat[12];
    char arg_key[kMaxArgs][12];
    char arg_val[kMaxArgs][44];
    std::uint64_t ts_ns = 0;  ///< start, ns since recorder epoch
    std::uint64_t dur_ns = 0; ///< duration in ns
    std::uint64_t job = 0;    ///< owning job id (0 = none)
};

/** Default per-thread buffer capacity in events (~16 MiB per thread). */
inline constexpr std::size_t kDefaultCapacityPerThread = 65536;

/**
 * The process-wide recorder. All threads share one instance
 * (`Recorder::global()`); per-thread buffers are created lazily on a
 * thread's first record and live for the process lifetime, so events
 * survive the recording thread's exit.
 */
class Recorder
{
  public:
    /** The singleton; first call applies SIPRE_TRACE if set. */
    static Recorder &global();

    /** Hot-path gate: one relaxed atomic load. */
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /**
     * Arm the recorder. `capacity_per_thread` (floored at 16) applies to
     * buffers created after this call; already-registered threads keep
     * theirs, so enable before traffic for a uniform size.
     */
    void enable(std::size_t capacity_per_thread = kDefaultCapacityPerThread);

    /** Stop recording; buffered events remain exportable. */
    void disable();

    /**
     * Drop all buffered events and reset drop counters (test isolation).
     * Not safe to race with active writers — quiesce traffic first.
     */
    void clear();

    /** Monotonic ns since the recorder epoch. */
    std::uint64_t nowNs() const;

    /** Append to the calling thread's buffer (drops when full). */
    void record(const TraceEvent &event);

    /** Events currently buffered across all threads. */
    std::uint64_t bufferedEvents() const;

    /** Events dropped because a thread's buffer was full. */
    std::uint64_t droppedEvents() const;

    /**
     * Visit every buffered event with its recorder-assigned thread
     * index. Snapshot semantics: events published after the call starts
     * may or may not be seen.
     */
    void forEachEvent(
        const std::function<void(const TraceEvent &, std::uint32_t tid)> &fn)
        const;

    /** Prometheus-style text for /metrics. */
    std::string metricsText() const;

  private:
    struct ThreadLog
    {
        explicit ThreadLog(std::size_t capacity) : events(capacity) {}
        std::vector<TraceEvent> events;
        std::atomic<std::size_t> count{0};   ///< published entries
        std::atomic<std::uint64_t> dropped{0};
    };

    Recorder();
    ThreadLog &threadLog();

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_; ///< guards logs_ registration + capacity_
    std::vector<std::unique_ptr<ThreadLog>> logs_;
    std::size_t capacity_ = kDefaultCapacityPerThread;
    std::chrono::steady_clock::time_point epoch_;
};

/**
 * The job id spans on this thread are attributed to. Used by the job
 * executors (and propagated across the engine queue hop via
 * Job::trace_job) so `GET /jobs/<id>/trace` can filter a shared
 * recorder down to one job's spans.
 */
std::uint64_t currentJob();

/** RAII scope setting currentJob() for the calling thread. */
class ScopedJob
{
  public:
    explicit ScopedJob(std::uint64_t job);
    ~ScopedJob();
    ScopedJob(const ScopedJob &) = delete;
    ScopedJob &operator=(const ScopedJob &) = delete;

  private:
    std::uint64_t previous_;
};

/**
 * RAII span: captures the start time at construction (when the recorder
 * is enabled) and records one complete event at destruction. When the
 * recorder is disabled at construction the span is inert — destruction
 * and arg() do nothing.
 */
class Span
{
  public:
    explicit Span(const char *name, const char *cat = "app");
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach a key/value arg (first kMaxArgs stick; truncated to fit). */
    void arg(const char *key, std::string_view value);

  private:
    TraceEvent event_;
    std::size_t args_ = 0;
    bool armed_ = false;
};

} // namespace sipre::trace_obs

#endif // SIPRE_TRACE_OBS_RECORDER_HPP
