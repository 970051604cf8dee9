#include "jobs/manager.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "core/json_io.hpp"
#include "trace_obs/recorder.hpp"
#include "util/fault.hpp"

namespace sipre::jobs
{

namespace
{

/**
 * Move a record the loader rejected into `<store_dir>/quarantine/`,
 * out of the store's glob but preserved byte-for-byte for inspection.
 * Falls back to leaving the file in place when the move itself fails
 * (e.g. read-only filesystem); returns whether the move happened.
 */
bool
quarantineRecord(const std::string &store_dir, const std::string &path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path qdir = fs::path(store_dir) / "quarantine";
    fs::create_directories(qdir, ec);
    if (ec)
        return false;
    fs::path target = qdir / fs::path(path).filename();
    // Never clobber an earlier quarantined record of the same name.
    for (int i = 1; fs::exists(target, ec) && i < 1000; ++i)
        target = qdir / (fs::path(path).filename().string() + "." +
                         std::to_string(i));
    fs::rename(path, target, ec);
    return !ec;
}

} // namespace

JobManager::JobManager(service::SimulationEngine &engine,
                       const JobManagerOptions &options)
    : engine_(engine), options_(options)
{
    if (!options_.store_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options_.store_dir, ec);

        for (const std::string &path :
             listJobRecordPaths(options_.store_dir)) {
            JobRecord record;
            if (!loadJobRecord(path, record)) {
                const bool moved =
                    quarantineRecord(options_.store_dir, path);
                ++quarantined_;
                std::fprintf(stderr,
                             "[sipre_jobs] %s corrupt job record %s\n",
                             moved ? "quarantined" : "skipping",
                             path.c_str());
                continue;
            }
            auto entry = std::make_shared<JobEntry>();
            entry->record = std::move(record);
            if (!jobStateIsTerminal(entry->record.state)) {
                entry->record.state = JobState::kQueued;
                ++resumed_;
            }
            next_id_ = std::max(next_id_, entry->record.id + 1);
            jobs_.emplace(entry->record.id, std::move(entry));
        }
    }

    executors_.reserve(options_.shard_workers);
    for (unsigned i = 0; i < options_.shard_workers; ++i)
        executors_.emplace_back([this] { executorLoop(); });
}

JobManager::~JobManager()
{
    shutdown();
}

void
JobManager::checkpointLocked(const JobEntry &job)
{
    if (options_.store_dir.empty())
        return;
    if (!saveJobRecord(options_.store_dir, job.record))
        std::fprintf(stderr,
                     "[sipre_jobs] warning: cannot checkpoint job %llu "
                     "in %s\n",
                     static_cast<unsigned long long>(job.record.id),
                     options_.store_dir.c_str());
}

JobSubmitOutcome
JobManager::submit(const SweepSpec &spec)
{
    std::vector<service::SimRequest> requests = expandSweep(spec);

    std::lock_guard<std::mutex> lock(mutex_);
    JobSubmitOutcome outcome;
    if (stopping_) {
        outcome.status = JobSubmitStatus::kShutdown;
        outcome.error = "job manager shutting down";
        return outcome;
    }
    std::size_t active = 0;
    for (const auto &[id, entry] : jobs_) {
        if (!jobStateIsTerminal(entry->record.state))
            ++active;
    }
    if (active >= options_.max_active_jobs) {
        ++rejected_;
        outcome.status = JobSubmitStatus::kRejected;
        outcome.error = "too many active jobs (" + std::to_string(active) +
                        "/" + std::to_string(options_.max_active_jobs) +
                        ")";
        return outcome;
    }

    auto entry = std::make_shared<JobEntry>();
    entry->record.id = next_id_++;
    entry->record.state = JobState::kQueued;
    entry->record.spec = spec;
    entry->record.shards.reserve(requests.size());
    for (auto &request : requests) {
        ShardRecord shard;
        shard.key = request.canonicalKey();
        shard.request = std::move(request);
        entry->record.shards.push_back(std::move(shard));
    }
    ++submitted_;
    checkpointLocked(*entry);
    outcome.status = JobSubmitStatus::kOk;
    outcome.id = entry->record.id;
    outcome.shards = entry->record.shards.size();
    jobs_.emplace(entry->record.id, std::move(entry));
    work_cv_.notify_all();
    return outcome;
}

bool
JobManager::pickShardLocked(std::shared_ptr<JobEntry> &job,
                            std::size_t &shard_index)
{
    for (auto &[id, entry] : jobs_) {
        if (jobStateIsTerminal(entry->record.state) ||
            entry->cancel_requested)
            continue;
        for (std::size_t i = 0; i < entry->record.shards.size(); ++i) {
            if (entry->record.shards[i].state == ShardState::kPending) {
                entry->record.shards[i].state = ShardState::kRunning;
                entry->record.state = JobState::kRunning;
                ++entry->shards_running;
                job = entry;
                shard_index = i;
                return true;
            }
        }
    }
    return false;
}

void
JobManager::finishJobIfDoneLocked(JobEntry &job)
{
    if (jobStateIsTerminal(job.record.state) || job.shards_running > 0)
        return;
    if (job.cancel_requested) {
        job.record.state = JobState::kCancelled;
        ++cancelled_;
        return;
    }
    for (const auto &shard : job.record.shards) {
        if (shard.state == ShardState::kPending ||
            shard.state == ShardState::kRunning)
            return; // more work to do
    }
    if (job.record.failedShards() > 0) {
        job.record.state = JobState::kFailed;
        ++failed_;
    } else {
        job.record.state = JobState::kCompleted;
        ++completed_;
    }
}

void
JobManager::executorLoop()
{
    for (;;) {
        std::shared_ptr<JobEntry> job;
        std::size_t index = 0;
        service::SimRequest request;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [&] {
                return stopping_ || pickShardLocked(job, index);
            });
            if (job == nullptr)
                return; // stopping, nothing picked
            request = job->record.shards[index].request;
        }
        service::SubmitOutcome outcome;
        bool abandoned = false;
        // Fault site: shard execution. A failure here exercises the
        // failed-shard bookkeeping (and checkpointing) without needing
        // a genuinely broken workload.
        bool injected_fail = false;
        if (const auto fault = fault::at(fault::Site::kShard)) {
            fault::applyDelay(fault);
            injected_fail = fault.fail;
        }
        if (injected_fail) {
            outcome.status = service::SubmitStatus::kFailed;
            outcome.error = "injected shard fault";
        } else {
            // Everything below — including the engine.submit span and
            // the worker-side sim span it hands off to — is attributed
            // to this job id for GET /jobs/<id>/trace.
            const trace_obs::ScopedJob job_scope(job->record.id);
            trace_obs::Span span("jobs.shard", "jobs");
            span.arg("workload", request.workload);
            span.arg("shard", std::to_string(index));
            for (;;) {
                outcome = engine_.submit(request);
                if (outcome.status ==
                    service::SubmitStatus::kRejected) {
                    // Engine backpressure: the queue is full of other
                    // work. Back off briefly and retry unless
                    // stopping.
                    {
                        std::lock_guard<std::mutex> lock(mutex_);
                        if (stopping_) {
                            abandoned = true;
                            break;
                        }
                    }
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                    continue;
                }
                if (outcome.status == service::SubmitStatus::kShutdown)
                    abandoned = true;
                break;
            }
        }

        std::lock_guard<std::mutex> lock(mutex_);
        ShardRecord &shard = job->record.shards[index];
        --job->shards_running;
        if (abandoned) {
            // Not executed: back to pending so a later incarnation
            // (or the next executor pass) picks it up.
            shard.state = ShardState::kPending;
        } else if (outcome.status == service::SubmitStatus::kOk) {
            shard.state = ShardState::kDone;
            shard.result = *outcome.result;
            shard.cached = outcome.cache_hit || outcome.disk_hit ||
                           outcome.coalesced;
            shard.latency_us = outcome.latency_us;
            ++shards_done_;
            if (shard.cached)
                ++shards_cached_;
            if (outcome.proxied)
                ++shards_proxied_;
            shard_latency_.add(outcome.latency_us);
        } else {
            shard.state = ShardState::kFailed;
            shard.error = outcome.error.empty() ? "simulation failed"
                                                : outcome.error;
            ++shards_failed_;
        }
        finishJobIfDoneLocked(*job);
        checkpointLocked(*job);
        if (outcome.status == service::SubmitStatus::kShutdown) {
            // The engine is gone; no shard can ever run again.
            stopping_ = true;
            work_cv_.notify_all();
            return;
        }
        if (abandoned)
            return;
    }
}

std::optional<JobProgress>
JobManager::progress(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    const JobRecord &record = it->second->record;
    JobProgress p;
    p.id = record.id;
    p.state = record.state;
    p.shards_total = record.shards.size();
    p.shards_failed = record.failedShards();
    p.shards_done = record.doneShards() + p.shards_failed;
    p.shards_cached = record.cachedShards();
    if (!jobStateIsTerminal(record.state) &&
        p.shards_done < p.shards_total &&
        shard_latency_.count() > 0) {
        const double mean_us = shard_latency_.mean();
        const double remaining =
            static_cast<double>(p.shards_total - p.shards_done);
        const double width = options_.shard_workers > 0
                                 ? static_cast<double>(
                                       options_.shard_workers)
                                 : 1.0;
        p.eta_s = mean_us * remaining / width / 1e6;
    }
    return p;
}

std::vector<JobProgress>
JobManager::list() const
{
    std::vector<std::uint64_t> ids;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[id, entry] : jobs_)
            ids.push_back(id);
    }
    std::vector<JobProgress> out;
    out.reserve(ids.size());
    for (const std::uint64_t id : ids) {
        if (auto p = progress(id))
            out.push_back(*p);
    }
    return out;
}

bool
JobManager::cancel(std::uint64_t id, std::string &error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        error = "no such job";
        return false;
    }
    JobEntry &job = *it->second;
    if (jobStateIsTerminal(job.record.state)) {
        error = std::string("job already ") +
                jobStateName(job.record.state);
        return false;
    }
    job.cancel_requested = true;
    finishJobIfDoneLocked(job); // immediate when nothing is running
    checkpointLocked(job);
    return true;
}

JobResultStatus
JobManager::result(std::uint64_t id, std::string &json) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return JobResultStatus::kUnknown;
    const JobRecord &record = it->second->record;
    if (!jobStateIsTerminal(record.state))
        return JobResultStatus::kNotFinished;

    json = "[";
    for (std::size_t i = 0; i < record.shards.size(); ++i) {
        const ShardRecord &shard = record.shards[i];
        if (i != 0)
            json += ',';
        json += "{\"index\":" + std::to_string(i) + ",\"request\":" +
                service::requestToJson(shard.request);
        switch (shard.state) {
        case ShardState::kDone:
            json += ",\"state\":\"done\",\"cached\":";
            json += shard.cached ? "true" : "false";
            json += ",\"latency_us\":" + jsonDouble(shard.latency_us);
            json += ",\"result\":" + simResultToJson(shard.result);
            break;
        case ShardState::kFailed:
            json += ",\"state\":\"failed\",\"error\":\"" +
                    jsonEscape(shard.error) + "\"";
            break;
        case ShardState::kPending:
        case ShardState::kRunning:
            json += ",\"state\":\"skipped\""; // cancelled before running
            break;
        }
        json += '}';
    }
    json += ']';
    return JobResultStatus::kOk;
}

bool
JobManager::traceInfo(std::uint64_t id,
                      std::vector<ShardTraceInfo> &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    const JobRecord &record = it->second->record;
    for (std::size_t i = 0; i < record.shards.size(); ++i) {
        const ShardRecord &shard = record.shards[i];
        if (shard.state != ShardState::kDone ||
            !shard.result.scenario_timeline.enabled())
            continue;
        ShardTraceInfo info;
        info.index = i;
        info.workload = shard.result.workload;
        info.config_label = shard.result.config_label;
        info.timeline = shard.result.scenario_timeline;
        out.push_back(std::move(info));
    }
    return true;
}

JobManagerStats
JobManager::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JobManagerStats s;
    s.submitted = submitted_;
    s.completed = completed_;
    s.failed = failed_;
    s.cancelled = cancelled_;
    s.rejected = rejected_;
    s.resumed = resumed_;
    s.quarantined = quarantined_;
    s.shards_done = shards_done_;
    s.shards_failed = shards_failed_;
    s.shards_cached = shards_cached_;
    s.shards_proxied = shards_proxied_;
    s.jobs_total = jobs_.size();
    for (const auto &[id, entry] : jobs_) {
        if (!jobStateIsTerminal(entry->record.state))
            ++s.jobs_active;
    }
    s.shard_latency = shard_latency_.snapshot();
    return s;
}

std::uint64_t
JobManager::resumedJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return resumed_;
}

std::uint64_t
JobManager::quarantinedRecords() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantined_;
}

void
JobManager::shutdown()
{
    std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        work_cv_.notify_all();
    }
    if (!joined_) {
        for (auto &executor : executors_)
            executor.join();
        joined_ = true;
    }
    // Whatever didn't finish stays pending on disk for the next
    // incarnation to resume.
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[id, entry] : jobs_) {
        if (!jobStateIsTerminal(entry->record.state))
            checkpointLocked(*entry);
    }
}

} // namespace sipre::jobs
