#include "core/result_compare.hpp"

#include <iomanip>
#include <limits>
#include <sstream>

namespace sipre
{

namespace
{

/** Accumulates the first mismatch; later checks become no-ops. */
class Differ
{
  public:
    template <typename T>
    void
    check(const std::string &field, const T &a, const T &b)
    {
        if (!diff_.empty() || a == b)
            return;
        std::ostringstream oss;
        oss << std::setprecision(std::numeric_limits<double>::max_digits10)
            << field << ": " << a << " != " << b;
        diff_ = oss.str();
    }

    void
    check(const std::string &field, const RunningStat &a,
          const RunningStat &b)
    {
        check(field + ".count", a.count(), b.count());
        check(field + ".sum", a.sum(), b.sum());
        check(field + ".min", a.min(), b.min());
        check(field + ".max", a.max(), b.max());
    }

    void
    check(const std::string &field, const Histogram &a, const Histogram &b)
    {
        check(field + ".width", a.width(), b.width());
        check(field + ".buckets", a.buckets(), b.buckets());
        check(field + ".total", a.total(), b.total());
        check(field + ".sum", a.sum(), b.sum());
        check(field + ".overflow", a.overflow(), b.overflow());
        if (!diff_.empty())
            return;
        for (std::size_t i = 0; i < a.buckets(); ++i) {
            check(field + ".count[" + std::to_string(i) + "]", a.count(i),
                  b.count(i));
        }
    }

    const std::string &result() const { return diff_; }

  private:
    std::string diff_;
};

/** Every listed member of two stats structs, named `prefix` + member. */
template <typename Stats>
void
checkFields(Differ &d, const std::string &prefix, const Stats &a,
            const Stats &b)
{
    forEachField([&](const char *name, const auto &x,
                     const auto &y) { d.check(prefix + name, x, y); },
                 a, b);
}

/** Field-exact comparison of one result's scalar body under prefix p. */
void
checkResult(Differ &d, const std::string &p, const SimResult &a,
            const SimResult &b)
{
    d.check(p + "workload", a.workload, b.workload);
    d.check(p + "config_label", a.config_label, b.config_label);
    d.check(p + "instructions", a.instructions, b.instructions);
    d.check(p + "cycles", a.cycles, b.cycles);
    d.check(p + "effective_instructions", a.effective_instructions,
            b.effective_instructions);

    checkFields(d, p + "frontend.", a.frontend, b.frontend);
    checkFields(d, p + "backend.", a.backend, b.backend);
    checkFields(d, p + "branch.", a.branch, b.branch);
    checkFields(d, p + "btb.", a.btb, b.btb);
    checkFields(d, p + "l1i.", a.l1i, b.l1i);
    checkFields(d, p + "l1d.", a.l1d, b.l1d);
    checkFields(d, p + "l2.", a.l2, b.l2);
    checkFields(d, p + "llc.", a.llc, b.llc);

    d.check(p + "hwpf.size", a.hwpf.size(), b.hwpf.size());
    for (std::size_t i = 0; i < std::min(a.hwpf.size(), b.hwpf.size());
         ++i) {
        checkFields(d, p + "hwpf[" + std::to_string(i) + "].", a.hwpf[i],
                    b.hwpf[i]);
    }

    const ScenarioTimeline &ta = a.scenario_timeline;
    const ScenarioTimeline &tb = b.scenario_timeline;
    d.check(p + "scenario_timeline.window_size", ta.window_size,
            tb.window_size);
    d.check(p + "scenario_timeline.windows", ta.windows.size(),
            tb.windows.size());
    for (std::size_t i = 0;
         i < std::min(ta.windows.size(), tb.windows.size()); ++i) {
        const std::string prefix =
            p + "scenario_timeline.windows[" + std::to_string(i) + "]";
        d.check(prefix + ".start_cycle", ta.windows[i].start_cycle,
                tb.windows[i].start_cycle);
        for (std::size_t s = 0; s < kFtqScenarioCount; ++s) {
            d.check(prefix + "." +
                        ftqScenarioName(static_cast<FtqScenario>(s)),
                    ta.windows[i].cycles[s], tb.windows[i].cycles[s]);
        }
    }
}

void
checkVector(Differ &d, const std::string &field,
            const std::vector<std::uint64_t> &a,
            const std::vector<std::uint64_t> &b)
{
    d.check(field + ".size", a.size(), b.size());
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        d.check(field + "[" + std::to_string(i) + "]", a[i], b[i]);
}

void
checkLog2(Differ &d, const std::string &field, const Log2Histogram &a,
          const Log2Histogram &b)
{
    d.check(field + ".total", a.total(), b.total());
    d.check(field + ".sum", a.sum(), b.sum());
    for (std::size_t i = 0; i < a.buckets(); ++i)
        d.check(field + ".count[" + std::to_string(i) + "]", a.count(i),
                b.count(i));
}

} // namespace

std::string
diffSimResults(const SimResult &a, const SimResult &b)
{
    Differ d;
    checkResult(d, "", a, b);

    const SharedMemStats &sa = a.shared_mem;
    const SharedMemStats &sb = b.shared_mem;
    checkFields(d, "shared_mem.llc.", sa.llc, sb.llc);
    checkFields(d, "shared_mem.dram.", sa.dram, sb.dram);
    checkVector(d, "shared_mem.llc_core_hits", sa.llc_core_hits,
                sb.llc_core_hits);
    checkVector(d, "shared_mem.llc_core_misses", sa.llc_core_misses,
                sb.llc_core_misses);
    checkVector(d, "shared_mem.port_grants", sa.port_grants,
                sb.port_grants);
    checkVector(d, "shared_mem.port_queued", sa.port_queued,
                sb.port_queued);
    checkLog2(d, "shared_mem.dram_queue_depth", sa.dram_queue_depth,
              sb.dram_queue_depth);

    d.check("core_results.size", a.core_results.size(),
            b.core_results.size());
    for (std::size_t i = 0;
         i < std::min(a.core_results.size(), b.core_results.size()); ++i) {
        checkResult(d, "core[" + std::to_string(i) + "].",
                    a.core_results[i], b.core_results[i]);
    }
    return d.result();
}

} // namespace sipre
