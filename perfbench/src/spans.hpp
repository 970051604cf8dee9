/**
 * @file
 * In-memory spans recorded by the benchmark around its calls into the
 * simulator's public functions. A span has a name, start and end, the
 * span that caused it and a request id. Spans stay in memory until the
 * run ends and are then written out as a Chrome trace. Recording is off
 * unless enabled, so untraced runs pay one branch per call site.
 */
#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t request = 0;
    std::uint32_t thread = 0;

    double duration() const { return end_us - start_us; }
};

/**
 * Self time of each span: its duration minus the part of its interval
 * that its direct children cover (overlapping children counted once,
 * children clipped to the parent). Indexed like `spans`.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Per-name totals over a set of spans. */
struct SpanTotals
{
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
    std::vector<double> durations_us;
};

std::map<std::string, SpanTotals> totalsByName(const std::vector<Span> &spans);

/**
 * True for spans around a simulator module's public function (names
 * under trace., core., asmdb., multicore., service., and jobs.expand);
 * false for the benchmark's own wrapper spans (a round, one campaign
 * workload, one shard, one request).
 */
bool isLayerSpan(const std::string &name);

/**
 * Share of the per-item wrapper spans' time that layer spans cover.
 * Items are the direct children of `root` that are not layer spans;
 * within each item, the union of its layer-span children counts as
 * covered. What is left is time no named layer accounts for (object
 * construction, copies, the benchmark's own glue). 0 without items.
 */
double layerCoverage(const std::vector<Span> &spans, std::uint64_t root);

/** Process-wide span store. */
class SpanRecorder
{
  public:
    static SpanRecorder &instance();

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Microseconds since the recorder's epoch (process start). */
    double nowUs() const;

    std::uint64_t nextId();
    void add(Span span);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Write all spans as Chrome trace-event JSON. Returns false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    SpanRecorder();

    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t next_id_ = 1;
};

/**
 * RAII span. The parent is the innermost open span on this thread
 * unless one is given (work handed to another thread passes its
 * parent explicitly). A no-op while recording is off.
 */
class ScopedSpan
{
  public:
    static constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};

    explicit ScopedSpan(const char *name, std::uint64_t request = 0,
                        std::uint64_t parent = kInheritParent);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id (0 while recording is off). */
    std::uint64_t id() const { return span_.id; }

  private:
    Span span_;
    std::uint64_t saved_current_ = 0;
    bool active_ = false;
};

/**
 * Record a span the caller timed itself with SpanRecorder::nowUs(), for
 * calls whose span name depends on their outcome. A no-op while
 * recording is off.
 */
void recordSpan(const char *name, double start_us, double end_us,
                std::uint64_t parent, std::uint64_t request = 0);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
