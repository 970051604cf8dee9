/**
 * @file
 * The persistent job record: one text file per job holding the sweep
 * spec, per-shard status, and completed shard results (in the shared
 * campaign text format). Records are checkpointed atomically
 * (write-temp + rename) as shards finish, so a killed daemon loses at
 * most the shards that were mid-simulation — and those reload as
 * pending, never as silently lost or silently done.
 */
#ifndef SIPRE_JOBS_JOB_STORE_HPP
#define SIPRE_JOBS_JOB_STORE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/sim_result.hpp"
#include "jobs/sweep.hpp"

namespace sipre::jobs
{

/** Per-shard lifecycle. kRunning is in-memory only: it persists as
 *  pending, which is exactly the resume-after-crash semantic. */
enum class ShardState : std::uint8_t {
    kPending,
    kRunning,
    kDone,
    kFailed
};

/** Job lifecycle. Terminal states: completed, failed, cancelled. */
enum class JobState : std::uint8_t {
    kQueued,
    kRunning,
    kCompleted,
    kFailed,
    kCancelled
};

const char *jobStateName(JobState state);
bool jobStateIsTerminal(JobState state);

/** One (workload, config) point of a sweep. */
struct ShardRecord
{
    service::SimRequest request; ///< from the spec's expansion
    std::string key;             ///< request.canonicalKey(), persisted
    ShardState state = ShardState::kPending;
    bool cached = false;     ///< served by an engine cache tier
    double latency_us = 0.0; ///< engine-reported submit latency
    SimResult result;        ///< valid when kDone
    std::string error;       ///< set when kFailed (JSON-escaped form)
};

/** A whole job: identity, lifecycle, spec, and its shards. */
struct JobRecord
{
    std::uint64_t id = 0;
    JobState state = JobState::kQueued;
    SweepSpec spec;
    std::vector<ShardRecord> shards;

    std::size_t doneShards() const;
    std::size_t failedShards() const;
    std::size_t cachedShards() const;
};

/** Bumped whenever the record layout changes; stale files are rejected. */
inline constexpr int kJobRecordVersion = 5;

/** File a job persists to: `<dir>/job_<id>.sipre`. */
std::string jobRecordPath(const std::string &dir, std::uint64_t id);

/**
 * Atomically persist `record` (temp file + rename). Running shards are
 * written as pending. Returns false on an unwritable directory.
 */
bool saveJobRecord(const std::string &dir, const JobRecord &record);

/**
 * Load one record. Strict: a stale version, truncated payload, garbled
 * result line, or a shard key that no longer matches the spec's
 * expansion all reject the whole file (return false) rather than
 * resurrecting a half-trusted job. Shards saved while running reload
 * as pending.
 */
bool loadJobRecord(const std::string &path, JobRecord &record);

/** The job-record files under `dir`, sorted (empty if no directory). */
std::vector<std::string> listJobRecordPaths(const std::string &dir);

} // namespace sipre::jobs

#endif // SIPRE_JOBS_JOB_STORE_HPP
