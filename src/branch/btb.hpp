/**
 * @file
 * Branch Target Buffer: set-associative, LRU, storing target and branch
 * kind. The FTQ builder relies on the BTB to discover where basic
 * blocks end; BTB misses on taken branches stall fetch-ahead (and, per
 * the Ishii GHR filter, BTB misses keep not-taken conditionals out of
 * the global history entirely).
 */
#ifndef SIPRE_BRANCH_BTB_HPP
#define SIPRE_BRANCH_BTB_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "trace/instruction.hpp"
#include "util/field_list.hpp"
#include "util/types.hpp"

namespace sipre
{

/** What a BTB hit reveals about the branch at a PC. */
struct BtbEntry
{
    Addr target = 0;
    InstClass cls = InstClass::kCondBranch;
};

/** BTB statistics. */
struct BtbStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t updates = 0;
    std::uint64_t evictions = 0;
};

/** BtbStats' field list (see util/field_list.hpp). */
template <typename Visitor, FieldsOf<BtbStats>... S>
void
forEachField(Visitor &&visit, S &...s)
{
    visit("lookups", s.lookups...);
    visit("hits", s.hits...);
    visit("updates", s.updates...);
    visit("evictions", s.evictions...);
}

/** A set-associative branch target buffer with true-LRU replacement. */
class Btb
{
  public:
    Btb(std::uint32_t entries = 8192, std::uint32_t ways = 8);

    /** Look up pc; nullopt on miss. Updates recency on hit. */
    std::optional<BtbEntry> lookup(Addr pc);

    /** Probe without recency side effects (for tests/stats). */
    std::optional<BtbEntry> probe(Addr pc) const;

    /** Insert or refresh the entry for a branch. */
    void update(Addr pc, Addr target, InstClass cls);

    const BtbStats &stats() const { return stats_; }

    /** Zero the event counters (end-of-warmup). */
    void resetStats() { stats_ = BtbStats{}; }

  private:
    /**
     * Tag value no real branch can produce: tags are pc >> 2, so the
     * top two bits of an all-ones tag would require a pc above the
     * 64-bit address space. Invalid ways carry this tag, which lets the
     * hit loop compare tags with no validity branch.
     */
    static constexpr Addr kInvalidTag = ~Addr{0};

    std::uint32_t setOf(Addr pc) const;
    Addr tagOf(Addr pc) const;

    std::uint32_t sets_;
    std::uint32_t ways_;
    // Structure-of-arrays: the hit loop touches only tags_, so a set's
    // tags share a cache line instead of being strided across
    // {tag, valid, entry, stamp} records.
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> stamps_;
    std::vector<BtbEntry> entries_;
    std::uint64_t clock_ = 0;
    BtbStats stats_;
};

} // namespace sipre

#endif // SIPRE_BRANCH_BTB_HPP
