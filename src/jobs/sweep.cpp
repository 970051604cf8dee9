#include "jobs/sweep.hpp"

#include <algorithm>

#include "core/json_io.hpp"
#include "trace/synth/workload.hpp"

namespace sipre::jobs
{

std::size_t
SweepSpec::shardCount() const
{
    const std::size_t workload_dim = mix.empty() ? workloads.size() : 1;
    // Base shards run no AsmDB, so they skip the provider axis.
    const auto base = static_cast<std::size_t>(
        std::count(modes.begin(), modes.end(), SimMode::kBase));
    const std::size_t mode_dim =
        base + (modes.size() - base) * distance_providers.size();
    return workload_dim * cores.size() * ftq.size() * mode_dim *
           predictors.size() * hw_prefetchers.size() * pfc.size() *
           ghr_filter.size() * wrong_path.size();
}

namespace
{

/**
 * Collect the scalar-or-array field `value` into `items` through
 * `parseOne`, rejecting duplicates (they would create shards with
 * identical canonical keys) and empty arrays.
 */
template <typename T, typename ParseOne>
bool
parseAxis(const std::string &field, const JsonValue &value,
          std::vector<T> &items, ParseOne &&parseOne, std::string &error)
{
    items.clear();
    const auto add = [&](const JsonValue &element) {
        T parsed{};
        if (!parseOne(element, parsed))
            return false;
        if (std::find(items.begin(), items.end(), parsed) != items.end()) {
            error = "duplicate value in field '" + field + "'";
            return false;
        }
        items.push_back(parsed);
        return true;
    };
    if (value.kind == JsonValue::Kind::kArray) {
        if (value.array.empty()) {
            error = "field '" + field + "' must not be an empty array";
            return false;
        }
        for (const auto &element : value.array) {
            if (!add(element))
                return false;
        }
        return true;
    }
    return add(value);
}

} // namespace

bool
parseSweepSpec(const std::string &body, SweepSpec &out, std::string &error)
{
    JsonValue doc;
    if (!parseJson(body, doc, error)) {
        error = "invalid JSON: " + error;
        return false;
    }
    if (!doc.isObject()) {
        error = "sweep spec must be a JSON object";
        return false;
    }

    out = SweepSpec{};
    bool have_workloads = false;
    bool have_mix = false;
    bool have_cores = false;
    for (const auto &[key, value] : doc.object) {
        if (key == "workloads") {
            have_workloads = true;
            if (value.isString() && value.string == "all") {
                out.workloads.clear();
                for (const auto &spec : synth::cvp1LikeSuite())
                    out.workloads.push_back(spec.name);
                continue;
            }
            if (!parseAxis(
                    key, value, out.workloads,
                    [&](const JsonValue &v, std::string &name) {
                        if (!v.isString()) {
                            error = "field 'workloads' must be \"all\" or "
                                    "an array of workload names";
                            return false;
                        }
                        name = v.string;
                        return true;
                    },
                    error))
                return false;
        } else if (key == "mix") {
            have_mix = true;
            // Duplicates are legitimate here (a mix can co-run two
            // copies of one workload next to a third), so this does
            // not go through parseAxis.
            if (!value.isArray() || value.array.empty() ||
                value.array.size() > service::kMaxCores) {
                error = "field 'mix' must be an array of 1 to " +
                        std::to_string(service::kMaxCores) +
                        " workload names";
                return false;
            }
            out.mix.clear();
            for (const auto &element : value.array) {
                if (!element.isString()) {
                    error = "field 'mix' must be an array of workload "
                            "names";
                    return false;
                }
                out.mix.push_back(element.string);
            }
        } else if (key == "cores") {
            have_cores = true;
            if (!parseAxis(
                    key, value, out.cores,
                    [&](const JsonValue &v, std::uint32_t &n_cores) {
                        std::uint64_t n = 0;
                        if (!jsonToUint(v, n) || n < 1 ||
                            n > service::kMaxCores) {
                            error = "field 'cores' values must be "
                                    "integers in [1, " +
                                    std::to_string(service::kMaxCores) +
                                    "]";
                            return false;
                        }
                        n_cores = static_cast<std::uint32_t>(n);
                        return true;
                    },
                    error))
                return false;
        } else if (key == "instructions") {
            std::uint64_t n = 0;
            if (!jsonToUint(value, n)) {
                error =
                    "field 'instructions' must be a non-negative integer";
                return false;
            }
            if (n < service::kMinInstructions ||
                n > service::kMaxInstructions) {
                error = "field 'instructions' out of range [" +
                        std::to_string(service::kMinInstructions) + ", " +
                        std::to_string(service::kMaxInstructions) + "]";
                return false;
            }
            out.instructions = n;
        } else if (key == "ftq") {
            if (!parseAxis(
                    key, value, out.ftq,
                    [&](const JsonValue &v, std::uint32_t &depth) {
                        std::uint64_t n = 0;
                        if (!jsonToUint(v, n) ||
                            n < service::kMinFtqEntries ||
                            n > service::kMaxFtqEntries) {
                            error =
                                "field 'ftq' values must be integers in "
                                "[" +
                                std::to_string(service::kMinFtqEntries) +
                                ", " +
                                std::to_string(service::kMaxFtqEntries) +
                                "]";
                            return false;
                        }
                        depth = static_cast<std::uint32_t>(n);
                        return true;
                    },
                    error))
                return false;
        } else if (key == "mode") {
            if (!parseAxis(
                    key, value, out.modes,
                    [&](const JsonValue &v, SimMode &mode) {
                        if (!v.isString() || !parseSimMode(v.string)) {
                            error = "field 'mode' values must be one of " +
                                    std::string(kSimModeChoices);
                            return false;
                        }
                        mode = *parseSimMode(v.string);
                        return true;
                    },
                    error))
                return false;
        } else if (key == "predictor") {
            if (!parseAxis(
                    key, value, out.predictors,
                    [&](const JsonValue &v, DirectionPredictorKind &kind) {
                        if (!v.isString() || !parsePredictor(v.string)) {
                            error =
                                "field 'predictor' values must be one of " +
                                std::string(kPredictorChoices);
                            return false;
                        }
                        kind = *parsePredictor(v.string);
                        return true;
                    },
                    error))
                return false;
        } else if (key == "hw_prefetcher") {
            if (!parseAxis(
                    key, value, out.hw_prefetchers,
                    [&](const JsonValue &v, IPrefetcherKind &kind) {
                        if (!v.isString() || !parseHwPrefetcher(v.string)) {
                            error = "field 'hw_prefetcher' values must be "
                                    "one of " +
                                    std::string(kHwPrefetcherChoices);
                            return false;
                        }
                        kind = *parseHwPrefetcher(v.string);
                        return true;
                    },
                    error))
                return false;
        } else if (key == "distance_provider") {
            if (!parseAxis(
                    key, value, out.distance_providers,
                    [&](const JsonValue &v, DistanceProviderKind &kind) {
                        if (!v.isString() ||
                            !parseDistanceProvider(v.string)) {
                            error = "field 'distance_provider' values "
                                    "must be one of " +
                                    std::string(kDistanceProviderChoices);
                            return false;
                        }
                        kind = *parseDistanceProvider(v.string);
                        return true;
                    },
                    error))
                return false;
        } else if (key == "pfc" || key == "ghr_filter" ||
                   key == "wrong_path") {
            std::vector<bool> *axis = key == "pfc" ? &out.pfc
                                      : key == "ghr_filter"
                                          ? &out.ghr_filter
                                          : &out.wrong_path;
            if (!parseAxis(
                    key, value, *axis,
                    [&](const JsonValue &v, bool &flag) {
                        if (!v.isBool()) {
                            error = "field '" + key +
                                    "' values must be booleans";
                            return false;
                        }
                        flag = v.boolean;
                        return true;
                    },
                    error))
                return false;
        } else {
            error = "unknown field '" + key + "'";
            return false;
        }
    }
    if (have_mix) {
        if (have_workloads) {
            error = "fields 'workloads' and 'mix' are mutually exclusive";
            return false;
        }
        if (have_cores) {
            error = "field 'cores' is implied by the 'mix' length";
            return false;
        }
        out.cores = {static_cast<std::uint32_t>(out.mix.size())};
    } else if (!have_workloads || out.workloads.empty()) {
        error = "missing required field 'workloads'";
        return false;
    }

    // The provider only steers the AsmDB pipeline: with no AsmDB mode
    // to steer, a non-static provider would silently expand to plain
    // base shards, so it is refused (as for a single request).
    const auto is_base = [](SimMode mode) { return mode == SimMode::kBase; };
    const auto is_static = [](DistanceProviderKind kind) {
        return kind == DistanceProviderKind::kStatic;
    };
    if (std::all_of(out.modes.begin(), out.modes.end(), is_base) &&
        !std::all_of(out.distance_providers.begin(),
                     out.distance_providers.end(), is_static)) {
        error = "field 'distance_provider' steers the AsmDB pipeline; "
                "a sweep whose only mode is 'base' runs none";
        return false;
    }

    std::vector<std::string> all_names = out.workloads;
    all_names.insert(all_names.end(), out.mix.begin(), out.mix.end());
    for (const auto &name : all_names) {
        if (!synth::findWorkload(name)) {
            error = "unknown workload '" + name + "'";
            return false;
        }
    }

    if (out.shardCount() > kMaxShardsPerJob) {
        error = "sweep expands to " + std::to_string(out.shardCount()) +
                " shards (limit " + std::to_string(kMaxShardsPerJob) +
                ")";
        return false;
    }
    return true;
}

std::string
sweepSpecToJson(const SweepSpec &spec)
{
    std::vector<std::uint64_t> ftq(spec.ftq.begin(), spec.ftq.end());
    std::vector<std::string> modes;
    for (const SimMode mode : spec.modes)
        modes.push_back(simModeName(mode));
    std::vector<std::string> predictors;
    for (const DirectionPredictorKind kind : spec.predictors)
        predictors.push_back(predictorName(kind));
    std::vector<std::string> prefetchers;
    for (const IPrefetcherKind kind : spec.hw_prefetchers)
        prefetchers.push_back(hwPrefetcherName(kind));
    std::vector<std::string> providers;
    for (const DistanceProviderKind kind : spec.distance_providers)
        providers.push_back(distanceProviderName(kind));

    std::string out;
    if (spec.mix.empty()) {
        std::vector<std::uint64_t> cores(spec.cores.begin(),
                                         spec.cores.end());
        out = "{\"workloads\":" + jsonStringArray(spec.workloads);
        out += ",\"cores\":" + jsonUIntArray(cores);
    } else {
        out = "{\"mix\":" + jsonStringArray(spec.mix);
    }
    out += ",\"instructions\":" + std::to_string(spec.instructions);
    out += ",\"ftq\":" + jsonUIntArray(ftq);
    out += ",\"mode\":" + jsonStringArray(modes);
    out += ",\"predictor\":" + jsonStringArray(predictors);
    out += ",\"hw_prefetcher\":" + jsonStringArray(prefetchers);
    out += ",\"pfc\":" + jsonBoolArray(spec.pfc);
    out += ",\"ghr_filter\":" + jsonBoolArray(spec.ghr_filter);
    out += ",\"wrong_path\":" + jsonBoolArray(spec.wrong_path);
    out += ",\"distance_provider\":" + jsonStringArray(providers);
    out += '}';
    return out;
}

std::vector<service::SimRequest>
expandSweep(const SweepSpec &spec)
{
    // The workload/core dimension first: (workload, cores) pairs for
    // homogeneous sweeps, or the single fixed mix. A homogeneous mix
    // normalizes to the empty-mix spelling so both share canonical keys
    // with the equivalent /simulate request.
    std::vector<service::SimRequest> machines;
    if (!spec.mix.empty()) {
        service::SimRequest machine;
        machine.workload = spec.mix.front();
        machine.cores = static_cast<std::uint32_t>(spec.mix.size());
        if (!std::all_of(spec.mix.begin(), spec.mix.end(),
                         [&](const std::string &w) {
                             return w == spec.mix.front();
                         }))
            machine.mix = spec.mix;
        machines.push_back(std::move(machine));
    } else {
        for (const auto &workload : spec.workloads) {
            for (const std::uint32_t cores : spec.cores) {
                service::SimRequest machine;
                machine.workload = workload;
                machine.cores = cores;
                machines.push_back(std::move(machine));
            }
        }
    }

    // The provider only steers the AsmDB pipeline: a base shard runs
    // once, under the default provider, whatever the axis lists.
    const std::vector<DistanceProviderKind> no_provider_axis = {
        DistanceProviderKind::kStatic};
    std::vector<service::SimRequest> shards;
    shards.reserve(spec.shardCount());
    for (const service::SimRequest &machine : machines) {
        for (const std::uint32_t ftq : spec.ftq) {
            for (const SimMode mode : spec.modes) {
                const auto &providers = mode == SimMode::kBase
                                            ? no_provider_axis
                                            : spec.distance_providers;
                for (const DirectionPredictorKind predictor :
                     spec.predictors) {
                    for (const IPrefetcherKind prefetcher :
                         spec.hw_prefetchers) {
                        for (const bool pfc : spec.pfc) {
                            for (const bool ghr : spec.ghr_filter) {
                                for (const bool wp : spec.wrong_path) {
                                    for (const DistanceProviderKind dp :
                                         providers) {
                                        service::SimRequest request =
                                            machine;
                                        request.instructions =
                                            spec.instructions;
                                        request.ftq_entries = ftq;
                                        request.mode = mode;
                                        request.predictor = predictor;
                                        request.hw_prefetcher =
                                            prefetcher;
                                        request.pfc = pfc;
                                        request.ghr_filter = ghr;
                                        request.wrong_path = wp;
                                        request.distance_provider = dp;
                                        shards.push_back(request);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return shards;
}

} // namespace sipre::jobs
