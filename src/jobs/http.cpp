#include "jobs/http.hpp"

#include <sstream>

#include "core/json_io.hpp"
#include "core/options.hpp"
#include "core/trace_export.hpp"
#include "trace_obs/chrome_trace.hpp"
#include "trace_obs/recorder.hpp"

namespace sipre::jobs
{

namespace
{

using service::http::Request;
using service::http::Response;

Response
jsonResponse(int status, std::string body)
{
    Response response;
    response.status = status;
    response.headers.emplace_back("Content-Type", "application/json");
    response.body = std::move(body);
    return response;
}

Response
errorResponse(int status, const std::string &message)
{
    return jsonResponse(status, "{\"status\":\"error\",\"error\":\"" +
                                    jsonEscape(message) + "\"}");
}

Response
methodNotAllowed(const std::string &allow)
{
    Response response =
        errorResponse(405, "method not allowed (Allow: " + allow + ")");
    response.headers.emplace_back("Allow", allow);
    return response;
}

} // namespace

std::string
jobProgressToJson(const JobProgress &p)
{
    std::ostringstream os;
    os << "{\"id\":" << p.id << ",\"state\":\"" << jobStateName(p.state)
       << "\",\"shards_total\":" << p.shards_total
       << ",\"shards_done\":" << p.shards_done
       << ",\"shards_failed\":" << p.shards_failed
       << ",\"shards_cached\":" << p.shards_cached
       << ",\"eta_s\":" << jsonDouble(p.eta_s) << "}";
    return os.str();
}

std::optional<Response>
JobHttpHandler::handle(const Request &request)
{
    const std::string &target = request.target;
    if (target != "/jobs" && target.rfind("/jobs/", 0) != 0)
        return std::nullopt;

    if (target == "/jobs") {
        if (request.method == "POST") {
            SweepSpec spec;
            std::string error;
            if (!parseSweepSpec(request.body, spec, error))
                return errorResponse(400, error);
            const JobSubmitOutcome outcome = manager_.submit(spec);
            switch (outcome.status) {
            case JobSubmitStatus::kRejected: {
                Response response = jsonResponse(
                    429, "{\"status\":\"rejected\",\"error\":\"" +
                             jsonEscape(outcome.error) + "\"}");
                response.headers.emplace_back("Retry-After", "1");
                return response;
            }
            case JobSubmitStatus::kShutdown:
                return jsonResponse(
                    503, "{\"status\":\"draining\",\"error\":\"" +
                             jsonEscape(outcome.error) + "\"}");
            case JobSubmitStatus::kOk:
                break;
            }
            return jsonResponse(
                202, "{\"status\":\"ok\",\"id\":" +
                         std::to_string(outcome.id) + ",\"shards\":" +
                         std::to_string(outcome.shards) +
                         ",\"spec\":" + sweepSpecToJson(spec) + "}");
        }
        if (request.method == "GET") {
            std::string body = "{\"status\":\"ok\",\"jobs\":[";
            bool first = true;
            for (const JobProgress &p : manager_.list()) {
                if (!first)
                    body += ',';
                first = false;
                body += jobProgressToJson(p);
            }
            body += "]}";
            return jsonResponse(200, body);
        }
        return methodNotAllowed("GET, POST");
    }

    // /jobs/<id>, /jobs/<id>/result, or /jobs/<id>/trace
    std::string rest = target.substr(6);
    bool want_result = false;
    bool want_trace = false;
    const std::size_t slash = rest.find('/');
    if (slash != std::string::npos) {
        const std::string suffix = rest.substr(slash);
        if (suffix == "/result")
            want_result = true;
        else if (suffix == "/trace")
            want_trace = true;
        else
            return errorResponse(404, "no route for " + target);
        rest = rest.substr(0, slash);
    }
    const auto id = parseUnsigned(rest);
    if (!id)
        return errorResponse(404, "bad job id '" + rest + "'");

    if (want_trace) {
        if (request.method != "GET")
            return methodNotAllowed("GET");
        std::vector<ShardTraceInfo> shards;
        if (!manager_.traceInfo(*id, shards))
            return errorResponse(404, "no such job " + rest);
        // Chrome trace JSON: this job's spans from the shared recorder
        // (empty unless the daemon runs with tracing armed) plus one
        // scenario counter track per shard that recorded a timeline
        // (empty unless --scenario-window is set). A running job gets
        // a partial — still loadable — trace.
        std::vector<trace_obs::CounterSeries> series;
        series.reserve(shards.size());
        for (const ShardTraceInfo &shard : shards) {
            series.push_back(scenarioCounterSeries(
                shard.timeline,
                "ftq scenarios: shard" + std::to_string(shard.index) +
                    " " + shard.workload + "/" + shard.config_label));
        }
        return jsonResponse(
            200, trace_obs::buildChromeTrace(
                     trace_obs::Recorder::global(), *id, series,
                     "sipre_served job " + rest));
    }

    if (want_result) {
        if (request.method != "GET")
            return methodNotAllowed("GET");
        std::string results_json;
        const JobResultStatus status = manager_.result(*id, results_json);
        const auto p = manager_.progress(*id);
        switch (status) {
        case JobResultStatus::kUnknown:
            return errorResponse(404, "no such job " + rest);
        case JobResultStatus::kNotFinished:
            return jsonResponse(
                409,
                "{\"status\":\"pending\",\"error\":\"job not finished\","
                "\"progress\":" +
                    jobProgressToJson(*p) + "}");
        case JobResultStatus::kOk:
            break;
        }
        return jsonResponse(200, "{\"status\":\"ok\",\"id\":" + rest +
                                     ",\"state\":\"" +
                                     jobStateName(p->state) +
                                     "\",\"shards\":" + results_json +
                                     "}");
    }

    if (request.method == "GET") {
        const auto p = manager_.progress(*id);
        if (!p)
            return errorResponse(404, "no such job " + rest);
        return jsonResponse(200, "{\"status\":\"ok\",\"job\":" +
                                     jobProgressToJson(*p) + "}");
    }
    if (request.method == "DELETE") {
        std::string error;
        if (!manager_.cancel(*id, error)) {
            const int status =
                error == "no such job" ? 404 : 409;
            return errorResponse(status, error + " (job " + rest + ")");
        }
        const auto p = manager_.progress(*id);
        return jsonResponse(200, "{\"status\":\"ok\",\"job\":" +
                                     jobProgressToJson(*p) + "}");
    }
    return methodNotAllowed("GET, DELETE");
}

std::string
JobHttpHandler::metricsText() const
{
    const JobManagerStats stats = manager_.stats();
    std::ostringstream body;
    body << "# TYPE sipre_jobs_submitted_total counter\n"
         << "sipre_jobs_submitted_total " << stats.submitted << "\n"
         << "# TYPE sipre_jobs_completed_total counter\n"
         << "sipre_jobs_completed_total " << stats.completed << "\n"
         << "# TYPE sipre_jobs_failed_total counter\n"
         << "sipre_jobs_failed_total " << stats.failed << "\n"
         << "# TYPE sipre_jobs_cancelled_total counter\n"
         << "sipre_jobs_cancelled_total " << stats.cancelled << "\n"
         << "# TYPE sipre_jobs_rejected_total counter\n"
         << "sipre_jobs_rejected_total " << stats.rejected << "\n"
         << "# TYPE sipre_jobs_resumed_total counter\n"
         << "sipre_jobs_resumed_total " << stats.resumed << "\n"
         << "# TYPE sipre_jobs_quarantined_total counter\n"
         << "sipre_jobs_quarantined_total " << stats.quarantined
         << "\n"
         << "# TYPE sipre_job_shards_done_total counter\n"
         << "sipre_job_shards_done_total " << stats.shards_done << "\n"
         << "# TYPE sipre_job_shards_failed_total counter\n"
         << "sipre_job_shards_failed_total " << stats.shards_failed
         << "\n"
         << "# TYPE sipre_job_shards_cached_total counter\n"
         << "sipre_job_shards_cached_total " << stats.shards_cached
         << "\n";
    // Only a cluster-mode daemon can proxy shards; keep the
    // single-node /metrics surface byte-identical by omitting the
    // counter until it first ticks.
    if (stats.shards_proxied > 0)
        body << "# TYPE sipre_job_shards_proxied_total counter\n"
             << "sipre_job_shards_proxied_total "
             << stats.shards_proxied << "\n";
    body << "# TYPE sipre_jobs_active gauge\n"
         << "sipre_jobs_active " << stats.jobs_active << "\n"
         << "# TYPE sipre_jobs_known gauge\n"
         << "sipre_jobs_known " << stats.jobs_total << "\n"
         << service::http::prometheusSummary(
                "sipre_job_shard_latency_us", stats.shard_latency);
    return body.str();
}

} // namespace sipre::jobs
