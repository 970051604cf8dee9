/**
 * @file
 * The three benchmark workloads. Each `run*` fills ctx.report: with
 * tracing off, the end-to-end metrics of repeated rounds until the
 * time budget is spent; with tracing on, the per-layer metrics of the
 * workload's round decomposed into layer calls, run once with spans
 * off and once with them on. Each `golden*`
 * adds the reference digests of every result the workload can deliver.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace perfbench
{

void runCampaign(Context &ctx);
void runSweep(Context &ctx);
void runServed(Context &ctx);

void goldenCampaign(GoldenTable &golden, unsigned threads);
void goldenSweep(GoldenTable &golden, unsigned threads);
void goldenServed(GoldenTable &golden, unsigned threads);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
