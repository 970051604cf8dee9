/**
 * @file
 * Glue between simulation results and the Chrome trace document: turns
 * a SimResult's ScenarioTimeline into a stacked counter track (one
 * point per window, time axis = simulated cycles) that
 * trace_obs::buildChromeTrace emits alongside the wall-clock spans.
 * Shared by `sipre_cli --trace-out` and `GET /jobs/<id>/trace` so both
 * surfaces produce the same schema. A busy profile becomes a counter
 * track on the spans' own wall-clock axis.
 */
#ifndef SIPRE_CORE_TRACE_EXPORT_HPP
#define SIPRE_CORE_TRACE_EXPORT_HPP

#include <string>

#include "frontend/scenario_timeline.hpp"
#include "trace_obs/busy_profile.hpp"
#include "trace_obs/chrome_trace.hpp"

namespace sipre
{

/**
 * One counter series from a recorded timeline. `label` names the track
 * (e.g. "ftq scenarios: secret_srv12/industry"). An empty timeline
 * yields a series with no points, which buildChromeTrace renders as
 * just the track metadata.
 */
trace_obs::CounterSeries
scenarioCounterSeries(const ScenarioTimeline &timeline,
                      const std::string &label);

/**
 * One counter series from a run's busy profile: each profiled
 * component's ns, stacked, held from `start_ns` to `end_ns` (recorder
 * time, normally the run's sim.run span) and zero after it.
 */
trace_obs::CounterSeries
busyCounterSeries(const trace_obs::BusyProfile &profile,
                  const std::string &label, std::uint64_t start_ns,
                  std::uint64_t end_ns);

} // namespace sipre

#endif // SIPRE_CORE_TRACE_EXPORT_HPP
