/**
 * @file
 * A generic set-associative, write-back, MSHR-based timing cache.
 *
 * The same class models the L1-I, L1-D, L2, and LLC; only the
 * configuration differs. Requests are accepted into a bounded input
 * queue, looked up with limited tag bandwidth per cycle, and either
 * complete after the hit latency or allocate an MSHR and travel to the
 * next level. Fills propagate back up synchronously through the
 * requester chain, so a request's total latency is the sum of the tag
 * latencies on its way down plus the serving level's latency.
 *
 * Hot-path layout: tag matching dominates the cache's host cost, so the
 * tag and metadata arrays are structure-of-arrays — one flat Addr array
 * scanned way-by-way (invalid ways hold an impossible sentinel tag, so
 * the match loop has no validity branch) and one byte array for the
 * dirty/prefetched flags. Each request does exactly one tag walk per
 * level: tick() resolves the way once and hands it to processRequest().
 * MSHR occupancy is likewise scanned through a flat address array, and
 * fill delivery recycles one scratch waiter vector instead of
 * reallocating per fill.
 */
#ifndef SIPRE_MEMORY_CACHE_HPP
#define SIPRE_MEMORY_CACHE_HPP

#include <algorithm>
#include <deque>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "memory/device.hpp"
#include "memory/iprefetcher.hpp"
#include "memory/replacement.hpp"
#include "memory/request.hpp"
#include "util/field_list.hpp"

namespace sipre
{

/** Static configuration of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint32_t size_bytes = 32 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t line_bits = 6;       ///< 64-byte lines
    Cycle latency = 4;                 ///< tag+data latency of this level
    std::uint32_t mshrs = 16;
    std::uint32_t queue_size = 32;     ///< input-queue capacity
    std::uint32_t tags_per_cycle = 2;  ///< lookups per cycle
    ReplPolicyKind policy = ReplPolicyKind::kLru;
    ServedBy level_tag = ServedBy::kL1;
};

/** Event counters exposed by each cache level. */
struct CacheStats
{
    std::uint64_t accesses = 0;       ///< demand lookups (hit+miss+merge)
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;         ///< demand misses (incl. late-pf hits)
    std::uint64_t mshr_merges = 0;    ///< demand merged into demand MSHR
    std::uint64_t prefetch_requests = 0;
    std::uint64_t prefetch_hits = 0;  ///< prefetch found line present
    std::uint64_t prefetch_fills = 0;
    std::uint64_t prefetch_useful = 0;///< demand hit on a prefetched line
    std::uint64_t prefetch_late = 0;  ///< demand merged into prefetch MSHR
    std::uint64_t evictions = 0;
    std::uint64_t writebacks_out = 0;
    std::uint64_t writebacks_in = 0;
};

/** CacheStats' field list (see util/field_list.hpp). */
template <typename Visitor, FieldsOf<CacheStats>... S>
void
forEachField(Visitor &&visit, S &...s)
{
    visit("accesses", s.accesses...);
    visit("hits", s.hits...);
    visit("misses", s.misses...);
    visit("mshr_merges", s.mshr_merges...);
    visit("prefetch_requests", s.prefetch_requests...);
    visit("prefetch_hits", s.prefetch_hits...);
    visit("prefetch_fills", s.prefetch_fills...);
    visit("prefetch_useful", s.prefetch_useful...);
    visit("prefetch_late", s.prefetch_late...);
    visit("evictions", s.evictions...);
    visit("writebacks_out", s.writebacks_out...);
    visit("writebacks_in", s.writebacks_in...);
}

/**
 * One timing cache level. See file comment for the flow.
 */
class Cache : public MemoryDevice
{
  public:
    Cache(CacheConfig config, MemoryDevice *lower);

    // MemoryDevice interface -------------------------------------------
    bool canAccept() const override;
    void enqueue(MemRequest req) override;
    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle now) const override;

    /** Receive a fill from the lower level (called by the lower device). */
    void handleFill(const MemRequest &fill);

    // Introspection -----------------------------------------------------
    /** Tag probe with no side effects: is the line present? */
    bool contains(Addr line_addr) const;

    /** Is there an MSHR in flight for this line? */
    bool mshrPending(Addr line_addr) const;

    /**
     * Combined drop-check for prefetch issue: line already present OR
     * already being fetched. One call where the prefetch paths used to
     * walk the tags and the MSHR file separately.
     */
    bool
    presentOrPending(Addr line_addr) const
    {
        return contains(line_addr) || mshrPending(line_addr);
    }

    std::uint32_t sets() const { return sets_; }
    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }

    /**
     * Zero the event counters (end-of-warmup). Cache contents are
     * kept, but per-line `prefetched` flags (and their prefetcher
     * attribution) are cleared so that prefetch_useful only counts
     * fills observed within the window.
     */
    void
    resetStats()
    {
        stats_ = CacheStats{};
        for (auto &meta : meta_)
            meta &= static_cast<std::uint8_t>(~kMetaPrefetched);
        std::fill(pf_origin_.begin(), pf_origin_.end(),
                  static_cast<std::uint8_t>(0));
    }

    /**
     * Insert prefetch fills at demoted replacement priority
     * (ReplacementPolicy::onInsertDemoted) instead of as normal fills.
     * Set by the hierarchy when a TLB/cache-management-aware prefetcher
     * is installed; off by default, so nothing changes for existing
     * configurations.
     */
    void setDemotePrefetchFills(bool on) { demote_prefetch_fills_ = on; }

    /** Fired once per *primary* demand miss (and per late prefetch). */
    std::function<void(Addr line_addr, AccessType type)> onDemandMiss;

    /** Fired on every demand lookup: (line, type, hit). */
    std::function<void(Addr line_addr, AccessType type, bool hit)> onAccess;

    /**
     * Fired on every demand lookup with the full request, so observers
     * can attribute the access (e.g. per-core contention counters on a
     * shared LLC). Fires at the same points as onAccess.
     */
    std::function<void(const MemRequest &req, bool hit)> onDemandLookup;

    /**
     * Fired when a hardware prefetch with a nonzero origin resolves:
     * its line was demand-hit (useful), its in-flight MSHR was caught
     * by a demand (late), it was evicted without ever being demanded
     * (polluting), or it filled at demoted priority. The hierarchy
     * routes these back to the issuing component's counter block.
     */
    std::function<void(std::uint8_t origin, PrefetchOutcome outcome)>
        onPrefetchOutcome;

  private:
    /** Sentinel stored in invalid ways; no real line number reaches it. */
    static constexpr Addr kInvalidTag = ~Addr{0};
    static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};
    static constexpr std::uint8_t kMetaDirty = 1u << 0;
    static constexpr std::uint8_t kMetaPrefetched = 1u << 1;

    struct Mshr
    {
        bool prefetch_only = true; ///< no demand waiter yet
        /** Issuing component of the allocating prefetch (0 = none/sw). */
        std::uint8_t pf_origin = 0;
        std::vector<MemRequest> waiters; ///< capacity kept across reuse
    };

    struct Scheduled
    {
        Cycle ready;
        std::uint64_t seq;     ///< FIFO tie-break for determinism
        bool is_forward;       ///< forward to lower level vs complete
        MemRequest req;

        bool
        operator>(const Scheduled &other) const
        {
            return ready != other.ready ? ready > other.ready
                                        : seq > other.seq;
        }
    };

    std::uint32_t setIndex(Addr line_addr) const;
    Addr tagOf(Addr line_addr) const;
    /** Way holding line_addr in its set, or kNoWay. One tag walk. */
    std::uint32_t lookupWay(Addr line_addr) const;
    /** Index of the MSHR tracking line_addr, or kNoWay. */
    std::uint32_t findMshr(Addr line_addr) const;
    std::uint32_t allocMshr(Addr line_addr);
    void processRequest(MemRequest &req, Cycle now, std::uint32_t way);
    void installLine(Addr line_addr, bool dirty, bool prefetched,
                     std::uint8_t pf_origin);
    void deliver(MemRequest &req);
    void schedule(Cycle ready, bool is_forward, const MemRequest &req);

    CacheConfig config_;
    MemoryDevice *lower_;
    std::uint32_t sets_;
    std::uint32_t line_shift_;
    /** Per-way line numbers (SoA); kInvalidTag marks an empty way. */
    std::vector<Addr> tags_;
    /** Per-way dirty/prefetched flag bytes, parallel to tags_. */
    std::vector<std::uint8_t> meta_;
    /** Per-way prefetch-origin bytes, parallel to tags_ (0 = none). */
    std::vector<std::uint8_t> pf_origin_;
    bool demote_prefetch_fills_ = false;
    std::unique_ptr<ReplacementPolicy> repl_;
    std::deque<MemRequest> input_;
    std::deque<MemRequest> writebacks_;
    /** In-flight line addresses (SoA); kInvalidTag marks a free MSHR. */
    std::vector<Addr> mshr_addrs_;
    std::vector<Mshr> mshrs_;
    std::uint32_t mshrs_in_use_ = 0;
    /** Scratch for handleFill; swapped with an MSHR's waiter list so
     *  steady-state fills allocate nothing. */
    std::vector<MemRequest> fill_waiters_;
    std::priority_queue<Scheduled, std::vector<Scheduled>,
                        std::greater<Scheduled>>
        sched_;
    std::uint64_t seq_ = 0;
    CacheStats stats_;
};

} // namespace sipre

#endif // SIPRE_MEMORY_CACHE_HPP
