/**
 * @file
 * The service request schema: every knob `sipre_cli` accepts, parsed
 * from JSON with strict validation, default-filled, and canonicalized
 * into a stable key so identical work is recognized regardless of field
 * order, whitespace, or which defaults the client spelled out.
 */
#ifndef SIPRE_SERVICE_REQUEST_HPP
#define SIPRE_SERVICE_REQUEST_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/options.hpp"

namespace sipre::service
{

/** One fully-validated simulation request (defaults = CLI defaults). */
struct SimRequest
{
    std::string workload = "secret_srv12";
    std::uint64_t instructions = 2'000'000;
    std::uint32_t ftq_entries = 24;
    SimMode mode = SimMode::kBase;
    DirectionPredictorKind predictor =
        DirectionPredictorKind::kHashedPerceptron;
    IPrefetcherKind hw_prefetcher = IPrefetcherKind::kNone;
    bool pfc = true;
    bool ghr_filter = true;
    bool wrong_path = true;
    /**
     * Where the AsmDB planner's prefetch distances come from. Only
     * consulted by the AsmDB-family modes (asmdb/noovh/metadata/
     * feedback); part of the canonical key for every request so a
     * provider change can never alias a cached result.
     */
    DistanceProviderKind distance_provider =
        DistanceProviderKind::kStatic;
    /** Core count; >1 routes through the multi-core simulator. */
    std::uint32_t cores = 1;
    /**
     * Per-core workload mix (heterogeneous co-runs). Empty means a
     * homogeneous run: `cores` copies of `workload`. When non-empty it
     * is authoritative — cores == mix.size() and workload == mix[0].
     */
    std::vector<std::string> mix;

    /** The per-core workload list, defaults expanded. */
    std::vector<std::string> effectiveMix() const;

    /**
     * Canonical identity of the request: fixed field order, defaults
     * filled in, enums spelled with their canonical names. Two requests
     * that mean the same simulation produce the same key; any knob
     * difference produces a different key.
     */
    std::string canonicalKey() const;

    /**
     * The SimConfig this request runs under, on every entry point
     * (sipre_cli fills a SimRequest too): starts from
     * SimConfig::industry() and applies the knobs, so the label stays
     * "industry-ftq24" at the default depth and becomes "ftqN"
     * otherwise.
     */
    SimConfig toConfig() const;
};

/** Hard limits enforced during validation. */
inline constexpr std::uint64_t kMinInstructions = 1'000;
inline constexpr std::uint64_t kMaxInstructions = 100'000'000;
inline constexpr std::uint32_t kMinFtqEntries = 1;
inline constexpr std::uint32_t kMaxFtqEntries = 512;
using sipre::kMaxCores;

/**
 * Parse and validate a JSON request body. Accepted fields (all
 * optional except `workload`): workload, instructions, ftq, mode,
 * predictor, hw_prefetcher, distance_provider, pfc, ghr_filter,
 * wrong_path, cores, mix.
 * `mix` (an array of workload names, one per core) stands in for
 * `workload` and fixes the core count; `cores` alone replicates
 * `workload` across that many cores. Unknown fields, wrong types,
 * out-of-range values, and unknown workloads are rejected with a
 * specific message in `error`.
 */
bool parseSimRequest(const std::string &body, SimRequest &out,
                     std::string &error);

/** The request echoed back as canonical JSON (for service responses). */
std::string requestToJson(const SimRequest &request);

/** FNV-1a 64-bit hash of the canonical key (metrics/debug labels). */
std::uint64_t requestHash(const SimRequest &request);

} // namespace sipre::service

#endif // SIPRE_SERVICE_REQUEST_HPP
