/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot components:
 * cache access path, BTB and direction-predictor lookups, FTQ
 * operations, trace generation, and whole-simulator throughput.
 */
#include <benchmark/benchmark.h>

#include "branch/unit.hpp"
#include "core/simulator.hpp"
#include "memory/cache.hpp"
#include "memory/dram.hpp"
#include "trace/synth/workload.hpp"
#include "util/rng.hpp"

namespace sipre
{
namespace
{

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_CacheHit(benchmark::State &state)
{
    Dram dram{DramConfig{}};
    CacheConfig config;
    config.size_bytes = 32 * 1024;
    Cache cache(config, &dram);
    cache.onComplete = [](const MemRequest &) {};
    // Warm one line.
    MemRequest warm;
    warm.id = 1;
    warm.line_addr = 0x1000;
    cache.enqueue(warm);
    for (Cycle c = 0; c < 500; ++c) {
        dram.tick(c);
        cache.tick(c);
    }
    Cycle now = 500;
    ReqId id = 2;
    for (auto _ : state) {
        if (cache.canAccept()) {
            MemRequest req;
            req.id = id++;
            req.line_addr = 0x1000;
            cache.enqueue(req);
        }
        cache.tick(now++);
    }
}
BENCHMARK(BM_CacheHit);

void
BM_BtbLookup(benchmark::State &state)
{
    Btb btb(8192, 8);
    Rng rng(3);
    for (int i = 0; i < 4096; ++i)
        btb.update(0x400000 + rng.below(1 << 16) * 4, 0x500000,
                   InstClass::kDirectJump);
    Addr pc = 0x400000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(btb.lookup(pc));
        pc += 4;
        if (pc > 0x440000)
            pc = 0x400000;
    }
}
BENCHMARK(BM_BtbLookup);

void
BM_PerceptronPredict(benchmark::State &state)
{
    auto predictor =
        makeDirectionPredictor(DirectionPredictorKind::kHashedPerceptron);
    GlobalHistory ghr;
    Addr pc = 0x400000;
    for (auto _ : state) {
        const bool taken = predictor->predict(pc, ghr);
        predictor->update(pc, ghr, (pc >> 2) & 1, taken);
        ghr.shift(taken);
        pc += 4;
    }
}
BENCHMARK(BM_PerceptronPredict);

void
BM_TageLitePredict(benchmark::State &state)
{
    auto predictor =
        makeDirectionPredictor(DirectionPredictorKind::kTageLite);
    GlobalHistory ghr;
    Addr pc = 0x400000;
    for (auto _ : state) {
        const bool taken = predictor->predict(pc, ghr);
        predictor->update(pc, ghr, (pc >> 2) & 1, taken);
        ghr.shift(taken);
        pc += 4;
    }
}
BENCHMARK(BM_TageLitePredict);

void
BM_TraceGeneration(benchmark::State &state)
{
    const auto spec = synth::makeWorkloadSpec(
        "public_srv_60", synth::Archetype::kServer, 0x517e2023ULL);
    for (auto _ : state) {
        const Trace trace = synth::generateTrace(
            spec, static_cast<std::size_t>(state.range(0)));
        benchmark::DoNotOptimize(trace.size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceGeneration)->Arg(100000);

void
BM_SimulatorThroughput(benchmark::State &state)
{
    const auto spec = synth::makeWorkloadSpec(
        "secret_srv12", synth::Archetype::kServer, 0x517e2023ULL);
    const Trace trace = synth::generateTrace(
        spec, static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        Simulator sim(SimConfig::industry(), trace);
        benchmark::DoNotOptimize(sim.run().cycles);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorThroughput)->Arg(100000)->Unit(
    benchmark::kMillisecond);

/**
 * Whole-simulator run with its busy profile armed: the counters report
 * where the wall-clock of each iteration went. The per-component ns
 * totals are exported for the run so a regression in any single
 * component's tick cost is attributable from the benchmark output
 * alone (no external profiler needed).
 */
void
BM_SimulatorProfiled(benchmark::State &state)
{
    const auto spec = synth::makeWorkloadSpec(
        "secret_srv12", synth::Archetype::kServer, 0x517e2023ULL);
    const Trace trace = synth::generateTrace(
        spec, static_cast<std::size_t>(state.range(0)));
    trace_obs::BusyProfile total;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        Simulator sim(SimConfig::industry(), trace);
        sim.enableBusyProfile();
        cycles += sim.run().cycles;
        total += sim.busyProfile(0);
        total += sim.sharedBusyProfile();
    }
    for (std::size_t i = 0; i < total.slots.size(); ++i) {
        const auto c = static_cast<trace_obs::BusyComponent>(i);
        if (total.slots[i].ticks == 0)
            continue;
        state.counters[std::string(trace_obs::busyComponentName(c)) +
                       "_ns_per_cycle"] =
            benchmark::Counter(
                cycles != 0 ? static_cast<double>(total.slots[i].ns) /
                                  static_cast<double>(cycles)
                            : 0.0);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorProfiled)->Arg(100000)->Unit(
    benchmark::kMillisecond);

} // namespace
} // namespace sipre

BENCHMARK_MAIN();
