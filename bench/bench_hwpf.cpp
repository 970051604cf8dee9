/**
 * @file
 * Hardware instruction-prefetcher benchmark: times a workload suite
 * under every `iprefetcher` kind and reports, per kind, the simulation
 * throughput (MIPS), the slowdown against the `none` baseline (the
 * simulator-side cost of running the prefetcher models), and the
 * architectural outcome — IPC, L1-I MPKI, and each component's
 * accuracy/coverage from its HwPrefetchCounters block.
 *
 * Emits one machine-readable JSON line on stdout:
 *   {"bench":"hwpf", "per_kind":[{"kind":"fdip", "seconds":...,
 *    "mips":..., "overhead_vs_none":..., "ipc":..., "l1i_mpki":...,
 *    "components":[{"name":"fdip","accuracy":...,"coverage":...}]}]}
 *
 * Environment knobs: SIPRE_WORKLOADS (default 8), SIPRE_INSTRUCTIONS
 * (default 1,000,000).
 */
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/options.hpp"
#include "core/simulator.hpp"
#include "trace/synth/workload.hpp"

namespace
{

std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    return std::strtoull(value, nullptr, 10);
}

} // namespace

int
main()
{
    using namespace sipre;

    const std::size_t workloads =
        static_cast<std::size_t>(envOr("SIPRE_WORKLOADS", 8));
    const std::size_t instructions =
        static_cast<std::size_t>(envOr("SIPRE_INSTRUCTIONS", 1'000'000));
    std::cerr << "[hwpf] workloads=" << workloads
              << " instructions=" << instructions << "\n";

    const auto suite = synth::cvp1LikeSuite(workloads);
    std::vector<Trace> traces;
    traces.reserve(suite.size());
    for (const auto &spec : suite)
        traces.push_back(synth::generateTrace(spec, instructions));

    const IPrefetcherKind kinds[] = {
        IPrefetcherKind::kNone,     IPrefetcherKind::kNextLine,
        IPrefetcherKind::kEipLite,  IPrefetcherKind::kFdip,
        IPrefetcherKind::kMana,     IPrefetcherKind::kFdipMana,
    };

    double none_seconds = 0.0;
    std::cout << "{\"bench\":\"hwpf\""
              << ",\"workloads\":" << traces.size()
              << ",\"instructions\":" << instructions
              << ",\"per_kind\":[";
    bool first_kind = true;
    for (const IPrefetcherKind kind : kinds) {
        std::cerr << "[hwpf] " << hwPrefetcherName(kind) << "...\n";
        SimConfig config = SimConfig::industry();
        config.memory.l1i_prefetcher = kind;

        std::uint64_t simulated = 0;
        std::uint64_t cycles = 0;
        std::uint64_t effective = 0;
        std::uint64_t l1i_misses = 0;
        std::vector<HwPrefetchCounters> components;
        const auto t0 = std::chrono::steady_clock::now();
        for (const Trace &trace : traces) {
            Simulator sim(config, trace);
            const SimResult r = sim.run();
            simulated += r.instructions;
            cycles += r.cycles;
            effective += r.effective_instructions;
            l1i_misses += r.l1i.misses;
            mergeByName(components, r.hwpf);
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double secs = std::chrono::duration<double>(t1 - t0).count();
        if (kind == IPrefetcherKind::kNone)
            none_seconds = secs;

        const double mips =
            secs > 0.0 ? static_cast<double>(simulated) / secs / 1e6 : 0.0;
        const double overhead =
            none_seconds > 0.0 ? secs / none_seconds - 1.0 : 0.0;
        const double ipc = cycles == 0 ? 0.0
                                       : static_cast<double>(effective) /
                                             static_cast<double>(cycles);
        const double mpki = effective == 0
                                ? 0.0
                                : 1000.0 * static_cast<double>(l1i_misses) /
                                      static_cast<double>(effective);

        if (!first_kind)
            std::cout << ",";
        first_kind = false;
        std::cout << "{\"kind\":\"" << hwPrefetcherName(kind) << "\""
                  << ",\"seconds\":" << secs << ",\"mips\":" << mips
                  << ",\"overhead_vs_none\":" << overhead
                  << ",\"ipc\":" << ipc << ",\"l1i_mpki\":" << mpki
                  << ",\"components\":[";
        bool first_component = true;
        for (const HwPrefetchCounters &c : components) {
            // Coverage: prefetch-served fetches over all fetches that
            // would have missed without the prefetcher.
            const std::uint64_t would_miss = c.useful + l1i_misses;
            const double coverage =
                would_miss == 0 ? 0.0
                                : static_cast<double>(c.useful) /
                                      static_cast<double>(would_miss);
            if (!first_component)
                std::cout << ",";
            first_component = false;
            std::cout << "{\"name\":\"" << c.name << "\""
                      << ",\"issued\":" << c.issued
                      << ",\"useful\":" << c.useful
                      << ",\"late\":" << c.late
                      << ",\"polluting\":" << c.polluting
                      << ",\"accuracy\":" << c.accuracy()
                      << ",\"coverage\":" << coverage << "}";
        }
        std::cout << "]}";
    }
    std::cout << "]}\n";
    return 0;
}
