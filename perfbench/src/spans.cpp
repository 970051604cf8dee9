#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <unordered_map>

namespace perfbench
{

namespace
{

thread_local std::uint64_t t_current_span = 0;
std::atomic<std::uint32_t> g_next_thread{1};
thread_local std::uint32_t t_thread_id = 0;

std::uint32_t
threadId()
{
    if (t_thread_id == 0)
        t_thread_id = g_next_thread.fetch_add(1);
    return t_thread_id;
}

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

/** Length of the union of [start, end) intervals, clipped to [lo, hi). */
double
coveredLength(std::vector<std::pair<double, double>> intervals, double lo,
              double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double cursor = lo;
    for (auto [start, end] : intervals) {
        start = std::max(start, cursor);
        end = std::min(end, hi);
        if (end > start) {
            covered += end - start;
            cursor = end;
        }
    }
    return covered;
}

} // namespace

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            children[it->second].emplace_back(s.start_us, s.end_us);
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        self[i] = s.duration() -
                  coveredLength(children[i], s.start_us, s.end_us);
    }
    return self;
}

std::map<std::string, SpanTotals>
totalsByName(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, SpanTotals> totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanTotals &t = totals[spans[i].name];
        ++t.count;
        t.total_us += spans[i].duration();
        t.self_us += self[i];
        t.durations_us.push_back(spans[i].duration());
    }
    return totals;
}

bool
isLayerSpan(const std::string &name)
{
    for (const char *prefix :
         {"trace.", "core.", "asmdb.", "multicore.", "service."}) {
        if (name.rfind(prefix, 0) == 0)
            return true;
    }
    return name == "jobs.expand";
}

double
layerCoverage(const std::vector<Span> &spans, std::uint64_t root)
{
    std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
        layers; // item id -> its layer children
    for (const Span &s : spans) {
        if (isLayerSpan(s.name))
            layers[s.parent].emplace_back(s.start_us, s.end_us);
    }
    double covered = 0.0, total = 0.0;
    for (const Span &s : spans) {
        if (s.parent != root || isLayerSpan(s.name))
            continue;
        total += s.duration();
        const auto it = layers.find(s.id);
        if (it != layers.end())
            covered += coveredLength(it->second, s.start_us, s.end_us);
    }
    return total > 0.0 ? covered / total : 0.0;
}

SpanRecorder::SpanRecorder() = default;

SpanRecorder &
SpanRecorder::instance()
{
    static SpanRecorder recorder;
    return recorder;
}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - g_epoch)
        .count();
}

std::uint64_t
SpanRecorder::nextId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_id_++;
}

void
SpanRecorder::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::ofstream os(path);
    if (!os)
        return false;
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
           << ",\"ts\":" << s.start_us << ",\"dur\":" << s.duration()
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

ScopedSpan::ScopedSpan(const char *name, std::uint64_t request,
                       std::uint64_t parent)
{
    SpanRecorder &rec = SpanRecorder::instance();
    if (!rec.enabled())
        return;
    active_ = true;
    span_.name = name;
    span_.id = rec.nextId();
    span_.parent = parent == kInheritParent ? t_current_span : parent;
    span_.request = request;
    span_.thread = threadId();
    saved_current_ = t_current_span;
    t_current_span = span_.id;
    span_.start_us = rec.nowUs();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    SpanRecorder &rec = SpanRecorder::instance();
    span_.end_us = rec.nowUs();
    t_current_span = saved_current_;
    rec.add(std::move(span_));
}

void
recordSpan(const char *name, double start_us, double end_us,
           std::uint64_t parent, std::uint64_t request)
{
    SpanRecorder &rec = SpanRecorder::instance();
    if (!rec.enabled())
        return;
    Span span;
    span.name = name;
    span.id = rec.nextId();
    span.parent = parent;
    span.request = request;
    span.thread = threadId();
    span.start_us = start_us;
    span.end_us = end_us;
    rec.add(std::move(span));
}

} // namespace perfbench
