/**
 * @file
 * A simple bandwidth- and row-buffer-aware DRAM model terminating the
 * memory hierarchy.
 */
#ifndef SIPRE_MEMORY_DRAM_HPP
#define SIPRE_MEMORY_DRAM_HPP

#include <deque>
#include <queue>
#include <vector>

#include "memory/device.hpp"
#include "util/field_list.hpp"

namespace sipre
{

/** DRAM timing/shape parameters (core-cycle units). */
struct DramConfig
{
    Cycle row_hit_latency = 110;   ///< end-to-end, on an open row
    Cycle row_miss_extra = 60;     ///< extra cycles to open a new row
    std::uint32_t banks = 16;
    std::uint32_t queue_size = 48;
    Cycle issue_gap = 4;           ///< min cycles between request starts
    std::uint32_t row_bits = 13;   ///< log2(row size in lines-ish units)
};

/** DRAM event counters. */
struct DramStats
{
    std::uint64_t reads = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
};

/** DramStats' field list (see util/field_list.hpp). */
template <typename Visitor, FieldsOf<DramStats>... S>
void
forEachField(Visitor &&visit, S &...s)
{
    visit("reads", s.reads...);
    visit("writebacks", s.writebacks...);
    visit("row_hits", s.row_hits...);
    visit("row_misses", s.row_misses...);
}

/**
 * Fixed-latency-per-row-state DRAM: one request may start every
 * issue_gap cycles (channel bandwidth); latency depends on whether the
 * per-bank open row matches. Writebacks are absorbed without response.
 */
class Dram : public MemoryDevice
{
  public:
    explicit Dram(DramConfig config);

    bool canAccept() const override;
    void enqueue(MemRequest req) override;
    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle now) const override;

    const DramStats &stats() const { return stats_; }

    /** Zero the event counters (end-of-warmup). State is kept. */
    void resetStats() { stats_ = DramStats{}; }
    const DramConfig &config() const { return config_; }

    /** Requests waiting or in service (queue-occupancy sampling). */
    std::size_t
    pendingRequests() const
    {
        return queue_.size() + sched_.size();
    }

  private:
    struct Scheduled
    {
        Cycle ready;
        std::uint64_t seq;
        MemRequest req;

        bool
        operator>(const Scheduled &other) const
        {
            return ready != other.ready ? ready > other.ready
                                        : seq > other.seq;
        }
    };

    std::uint32_t bankOf(Addr line_addr) const;
    std::uint64_t rowOf(Addr line_addr) const;

    DramConfig config_;
    std::deque<MemRequest> queue_;
    std::priority_queue<Scheduled, std::vector<Scheduled>,
                        std::greater<Scheduled>>
        sched_;
    std::vector<std::uint64_t> open_row_;
    Cycle next_issue_ = 0;
    std::uint64_t seq_ = 0;
    DramStats stats_;
};

} // namespace sipre

#endif // SIPRE_MEMORY_DRAM_HPP
