#include "core/trace_export.hpp"

namespace sipre
{

trace_obs::CounterSeries
scenarioCounterSeries(const ScenarioTimeline &timeline,
                      const std::string &label)
{
    trace_obs::CounterSeries series;
    series.name = label;
    for (std::size_t s = 0; s < kFtqScenarioCount; ++s)
        series.keys.push_back(
            ftqScenarioName(static_cast<FtqScenario>(s)));
    series.points.reserve(timeline.windows.size());
    for (const ScenarioWindow &window : timeline.windows) {
        trace_obs::CounterSeries::Point point;
        // The track's time axis is simulated cycles, presented through
        // the trace format's microsecond field: 1 "us" == 1 cycle.
        point.ts_us = static_cast<double>(window.start_cycle);
        point.values.assign(window.cycles.begin(), window.cycles.end());
        series.points.push_back(std::move(point));
    }
    return series;
}

trace_obs::CounterSeries
busyCounterSeries(const trace_obs::BusyProfile &profile,
                  const std::string &label, std::uint64_t start_ns,
                  std::uint64_t end_ns)
{
    trace_obs::CounterSeries series;
    series.name = label;
    trace_obs::CounterSeries::Point during{
        static_cast<double>(start_ns) / 1000.0, {}};
    for (std::size_t i = 0; i < profile.slots.size(); ++i) {
        if (profile.slots[i].ticks == 0)
            continue;
        series.keys.push_back(trace_obs::busyComponentName(
            static_cast<trace_obs::BusyComponent>(i)));
        during.values.push_back(profile.slots[i].ns);
    }
    trace_obs::CounterSeries::Point after{
        static_cast<double>(end_ns) / 1000.0,
        std::vector<std::uint64_t>(during.values.size(), 0)};
    series.points = {std::move(during), std::move(after)};
    return series;
}

} // namespace sipre
