#include "service/request.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/json_io.hpp"
#include "trace/synth/workload.hpp"

namespace sipre::service
{

std::vector<std::string>
SimRequest::effectiveMix() const
{
    if (!mix.empty())
        return mix;
    return std::vector<std::string>(cores, workload);
}

std::string
SimRequest::canonicalKey() const
{
    std::ostringstream oss;
    oss << "workload=" << workload << "&instructions=" << instructions
        << "&ftq=" << ftq_entries << "&mode=" << simModeName(mode)
        << "&predictor=" << predictorName(predictor)
        << "&hw_prefetcher=" << hwPrefetcherName(hw_prefetcher)
        << "&distance_provider=" << distanceProviderName(distance_provider)
        << "&pfc=" << (pfc ? 1 : 0)
        << "&ghr_filter=" << (ghr_filter ? 1 : 0)
        << "&wrong_path=" << (wrong_path ? 1 : 0)
        << "&cores=" << cores << "&mix=";
    const std::vector<std::string> full = effectiveMix();
    for (std::size_t i = 0; i < full.size(); ++i) {
        if (i != 0)
            oss << '+';
        oss << full[i];
    }
    return oss.str();
}

SimConfig
SimRequest::toConfig() const
{
    SimConfig config = SimConfig::industry();
    if (ftq_entries != config.frontend.ftq_entries) {
        config.frontend.ftq_entries = ftq_entries;
        config.label = "ftq" + std::to_string(ftq_entries);
    }
    config.frontend.branch.direction = predictor;
    config.memory.l1i_prefetcher = hw_prefetcher;
    config.frontend.pfc = pfc;
    config.frontend.branch.ghr_filter_btb_miss = ghr_filter;
    config.frontend.wrong_path_fetch = wrong_path;
    return config;
}

bool
parseSimRequest(const std::string &body, SimRequest &out, std::string &error)
{
    JsonValue doc;
    if (!parseJson(body, doc, error)) {
        error = "invalid JSON: " + error;
        return false;
    }
    if (!doc.isObject()) {
        error = "request body must be a JSON object";
        return false;
    }

    out = SimRequest{};
    bool have_workload = false;
    bool have_mix = false;
    bool have_cores = false;
    for (const auto &[key, value] : doc.object) {
        if (key == "workload") {
            if (!value.isString()) {
                error = "field 'workload' must be a string";
                return false;
            }
            out.workload = value.string;
            have_workload = true;
        } else if (key == "instructions") {
            std::uint64_t n = 0;
            if (!jsonToUint(value, n)) {
                error = "field 'instructions' must be a non-negative "
                        "integer";
                return false;
            }
            if (n < kMinInstructions || n > kMaxInstructions) {
                error = "field 'instructions' out of range [" +
                        std::to_string(kMinInstructions) + ", " +
                        std::to_string(kMaxInstructions) + "]";
                return false;
            }
            out.instructions = n;
        } else if (key == "ftq") {
            std::uint64_t n = 0;
            if (!jsonToUint(value, n)) {
                error = "field 'ftq' must be a non-negative integer";
                return false;
            }
            if (n < kMinFtqEntries || n > kMaxFtqEntries) {
                error = "field 'ftq' out of range [" +
                        std::to_string(kMinFtqEntries) + ", " +
                        std::to_string(kMaxFtqEntries) + "]";
                return false;
            }
            out.ftq_entries = static_cast<std::uint32_t>(n);
        } else if (key == "mode") {
            if (!value.isString()) {
                error = "field 'mode' must be a string";
                return false;
            }
            const auto mode = parseSimMode(value.string);
            if (!mode) {
                error = "unknown mode '" + value.string + "' (expected " +
                        kSimModeChoices + ")";
                return false;
            }
            out.mode = *mode;
        } else if (key == "predictor") {
            if (!value.isString()) {
                error = "field 'predictor' must be a string";
                return false;
            }
            const auto kind = parsePredictor(value.string);
            if (!kind) {
                error = "unknown predictor '" + value.string +
                        "' (expected " + kPredictorChoices + ")";
                return false;
            }
            out.predictor = *kind;
        } else if (key == "hw_prefetcher") {
            if (!value.isString()) {
                error = "field 'hw_prefetcher' must be a string";
                return false;
            }
            const auto kind = parseHwPrefetcher(value.string);
            if (!kind) {
                error = "unknown hw_prefetcher '" + value.string +
                        "' (expected " + kHwPrefetcherChoices + ")";
                return false;
            }
            out.hw_prefetcher = *kind;
        } else if (key == "distance_provider") {
            if (!value.isString()) {
                error = "field 'distance_provider' must be a string";
                return false;
            }
            const auto kind = parseDistanceProvider(value.string);
            if (!kind) {
                error = "unknown distance_provider '" + value.string +
                        "' (expected " + kDistanceProviderChoices + ")";
                return false;
            }
            out.distance_provider = *kind;
        } else if (key == "cores") {
            std::uint64_t n = 0;
            if (!jsonToUint(value, n)) {
                error = "field 'cores' must be a non-negative integer";
                return false;
            }
            if (n < 1 || n > kMaxCores) {
                error = "field 'cores' out of range [1, " +
                        std::to_string(kMaxCores) + "]";
                return false;
            }
            out.cores = static_cast<std::uint32_t>(n);
            have_cores = true;
        } else if (key == "mix") {
            if (!value.isArray()) {
                error = "field 'mix' must be an array of workload names";
                return false;
            }
            if (value.array.empty() || value.array.size() > kMaxCores) {
                error = "field 'mix' must name 1 to " +
                        std::to_string(kMaxCores) + " workloads";
                return false;
            }
            out.mix.clear();
            for (const JsonValue &entry : value.array) {
                if (!entry.isString()) {
                    error = "field 'mix' must be an array of workload "
                            "names";
                    return false;
                }
                out.mix.push_back(entry.string);
            }
            have_mix = true;
        } else if (key == "pfc" || key == "ghr_filter" ||
                   key == "wrong_path") {
            if (!value.isBool()) {
                error = "field '" + key + "' must be a boolean";
                return false;
            }
            if (key == "pfc")
                out.pfc = value.boolean;
            else if (key == "ghr_filter")
                out.ghr_filter = value.boolean;
            else
                out.wrong_path = value.boolean;
        } else {
            error = "unknown field '" + key + "'";
            return false;
        }
    }
    if (have_mix) {
        if (have_workload) {
            error = "fields 'workload' and 'mix' are mutually exclusive";
            return false;
        }
        if (have_cores &&
            out.cores != static_cast<std::uint32_t>(out.mix.size())) {
            error = "field 'cores' (" + std::to_string(out.cores) +
                    ") contradicts the " + std::to_string(out.mix.size()) +
                    "-entry 'mix'";
            return false;
        }
        out.cores = static_cast<std::uint32_t>(out.mix.size());
        out.workload = out.mix.front();
    } else if (!have_workload) {
        error = "missing required field 'workload'";
        return false;
    }
    if (out.mode == SimMode::kBase &&
        out.distance_provider != DistanceProviderKind::kStatic) {
        error = "field 'distance_provider' steers the AsmDB pipeline; "
                "mode 'base' runs none";
        return false;
    }
    // A single-entry mix is just a spelled-out homogeneous run; keep
    // the canonical form (empty mix) so both spellings share a key.
    if (out.mix.size() == 1 ||
        (out.mix.size() > 1 &&
         std::all_of(out.mix.begin(), out.mix.end(),
                     [&](const std::string &w) {
                         return w == out.mix.front();
                     })))
        out.mix.clear();

    // Validate every named workload against the synthesized suite.
    for (const std::string &name : out.effectiveMix()) {
        if (!synth::findWorkload(name)) {
            error = "unknown workload '" + name + "'";
            return false;
        }
    }
    return true;
}

std::string
requestToJson(const SimRequest &r)
{
    std::ostringstream oss;
    // `workload` and `mix` are mutually exclusive on the way in, so the
    // canonical echo spells whichever form the request reduces to.
    oss << "{";
    if (r.mix.empty())
        oss << "\"workload\":\"" << jsonEscape(r.workload) << "\"";
    else
        oss << "\"mix\":" << jsonStringArray(r.mix);
    oss << ",\"instructions\":" << r.instructions
        << ",\"ftq\":" << r.ftq_entries << ",\"mode\":\""
        << simModeName(r.mode) << "\",\"predictor\":\""
        << predictorName(r.predictor) << "\",\"hw_prefetcher\":\""
        << hwPrefetcherName(r.hw_prefetcher)
        << "\",\"distance_provider\":\""
        << distanceProviderName(r.distance_provider)
        << "\",\"pfc\":" << (r.pfc ? "true" : "false")
        << ",\"ghr_filter\":" << (r.ghr_filter ? "true" : "false")
        << ",\"wrong_path\":" << (r.wrong_path ? "true" : "false")
        << ",\"cores\":" << r.cores << "}";
    return oss.str();
}

std::uint64_t
requestHash(const SimRequest &request)
{
    const std::string key = request.canonicalKey();
    std::uint64_t hash = 1469598103934665603ull;
    for (const char c : key) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

} // namespace sipre::service
