/**
 * @file
 * The correctness gate's reference: a checked-in table of digests of
 * every result the benchmark can deliver, keyed by request canonical
 * key (or campaign record key). Each row holds the FNV-1a 64 digest of
 * the lossless campaign-text serialization (writeSimResultText) and of
 * the JSON serialization (simResultToJson) of the same result, so a
 * result delivered in either form can be checked.
 */
#ifndef PERFBENCH_GOLDEN_HPP
#define PERFBENCH_GOLDEN_HPP

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "core/experiment.hpp"
#include "core/sim_result.hpp"

namespace perfbench
{

std::uint64_t fnv1a64(std::string_view bytes);
std::string hex64(std::uint64_t value);

/** writeSimResultText of one result. */
std::string resultText(const sipre::SimResult &result);

/**
 * One campaign record in the campaign-cache layout: the workload name,
 * its six results and the bloat/plan line, exactly as saveCampaign
 * writes a record.
 */
std::string recordText(const sipre::WorkloadRecord &record);

/** Golden key of one campaign record. */
std::string campaignKey(const std::string &workload,
                        std::uint64_t instructions);

struct GoldenDigests
{
    std::string text; ///< hex digest of the campaign-text form
    std::string json; ///< hex digest of the JSON form ("-" if none)
};

class GoldenTable
{
  public:
    /** Load `path`. Returns false (with `error`) on a missing/garbled file. */
    bool load(const std::string &path, std::string &error);
    bool save(const std::string &path) const;

    const GoldenDigests *find(const std::string &key) const;
    void put(const std::string &key, GoldenDigests digests);
    std::size_t size() const { return rows_.size(); }

  private:
    std::map<std::string, GoldenDigests> rows_;
};

} // namespace perfbench

#endif // PERFBENCH_GOLDEN_HPP
