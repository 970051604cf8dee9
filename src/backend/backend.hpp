/**
 * @file
 * A simplified out-of-order back-end: dispatch from the decode queue
 * into a ROB, dependency-tracked issue with per-class latencies, loads
 * and stores through the L1-D, in-order retire, and branch-resolution
 * notifications back to the front-end.
 *
 * The back-end's job in this study is to provide realistic consumption
 * pressure and resolution timing for the front-end characterization;
 * it is deliberately simpler than a full scheduler model.
 *
 * Hot-path layout: the issue scan is the single most expensive loop in
 * the whole simulator (it walks up to sched_window entries every busy
 * cycle), so the per-entry scheduling state lives in flat
 * structure-of-arrays mirrors indexed by `seq & slot_mask_` — a
 * power-of-two slot space at least as large as the ROB, so live
 * sequence numbers never collide. Instead of re-deriving operand
 * readiness from producer ROB entries on every scan (two pointer chases
 * per waiting entry), each entry carries an outstanding-producer count
 * that is decremented by the producer's completion through a pooled
 * intrusive waiter list; the scan then touches exactly two small arrays.
 */
#ifndef SIPRE_BACKEND_BACKEND_HPP
#define SIPRE_BACKEND_BACKEND_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "frontend/decode_queue.hpp"
#include "memory/hierarchy.hpp"
#include "trace/trace.hpp"
#include "util/circular_buffer.hpp"
#include "util/field_list.hpp"
#include "util/flat_map.hpp"

namespace sipre
{

/** Back-end configuration (defaults are Sunny-Cove-like, per Table I). */
struct BackendConfig
{
    std::uint32_t rob_size = 352;
    std::uint32_t dispatch_width = 6;
    std::uint32_t issue_width = 6;
    std::uint32_t retire_width = 6;
    std::uint32_t load_ports = 2;
    std::uint32_t store_ports = 1;
    std::uint32_t sched_window = 128; ///< issue-scan depth from ROB head

    Cycle alu_latency = 1;
    Cycle fp_latency = 4;
    Cycle mul_latency = 3;
    Cycle div_latency = 18;
    Cycle branch_latency = 1;
};

/** Back-end statistics. */
struct BackendStats
{
    std::uint64_t retired = 0;
    std::uint64_t retired_sw_prefetches = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t loads_issued = 0;
    std::uint64_t stores_issued = 0;
    std::uint64_t rob_full_cycles = 0;
    std::uint64_t empty_rob_cycles = 0; ///< starved by the front-end
};

/** BackendStats' field list (see util/field_list.hpp). */
template <typename Visitor, FieldsOf<BackendStats>... S>
void
forEachField(Visitor &&visit, S &...s)
{
    visit("retired", s.retired...);
    visit("retired_sw_prefetches", s.retired_sw_prefetches...);
    visit("dispatched", s.dispatched...);
    visit("loads_issued", s.loads_issued...);
    visit("stores_issued", s.stores_issued...);
    visit("rob_full_cycles", s.rob_full_cycles...);
    visit("empty_rob_cycles", s.empty_rob_cycles...);
}

/**
 * The out-of-order core back-end. See file comment.
 */
class Backend
{
  public:
    Backend(const BackendConfig &config, const Trace &trace,
            MemoryHierarchy &memory, DecodeQueue &decode_queue);

    /** Advance one cycle. */
    void tick(Cycle now);

    /**
     * Earliest future cycle at which the back-end can make progress
     * (retire, complete, issue, or dispatch); kNoCycle when nothing is
     * pending locally. A tick at any earlier cycle must be a no-op
     * apart from the per-cycle occupancy counters, which the simulator
     * accounts for in bulk via accountSkippedCycles().
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Account the per-cycle occupancy counters for `count` skipped
     * cycles during which the back-end provably did nothing.
     */
    void
    accountSkippedCycles(Cycle count)
    {
        if (rob_.empty())
            stats_.empty_rob_cycles += count;
        if (rob_.full())
            stats_.rob_full_cycles += count;
    }

    /** Instructions retired since construction (never reset). */
    std::uint64_t retired() const { return retired_total_; }

    const BackendStats &stats() const { return stats_; }

    /** Zero the event counters (end-of-warmup). State is kept. */
    void resetStats() { stats_ = BackendStats{}; }

    /** ROB occupancy (for tests). */
    std::size_t robOccupancy() const { return rob_.size(); }

    /** Called when a branch enters the ROB (decode complete). */
    std::function<void(std::uint64_t trace_index, Cycle now)> onBranchDecoded;

    /** Called when a branch finishes execution (resolution). */
    std::function<void(std::uint64_t trace_index, Cycle now)>
        onBranchExecuted;

  private:
    enum class State : std::uint8_t {
        kWaiting,   ///< in ROB, operands possibly outstanding
        kExecuting, ///< latency counting down
        kWaitingMem,///< load in flight in the hierarchy
        kDone
    };

    struct RobEntry
    {
        std::uint64_t trace_index = 0;
        std::uint64_t seq = 0;         ///< global dispatch sequence number
    };

    struct ExecEvent
    {
        Cycle ready;
        std::uint64_t seq;

        bool
        operator>(const ExecEvent &other) const
        {
            return ready != other.ready ? ready > other.ready
                                        : seq > other.seq;
        }
    };

    static constexpr std::uint64_t kNoProducer = ~std::uint64_t{0};
    static constexpr std::uint32_t kNilWaiter = ~std::uint32_t{0};

    Cycle latencyFor(InstClass cls) const;
    std::uint32_t slotOf(std::uint64_t seq) const
    {
        return static_cast<std::uint32_t>(seq) & slot_mask_;
    }
    /** Is seq still in the ROB? Sequence numbers are contiguous. */
    bool
    inRob(std::uint64_t seq) const
    {
        return !rob_.empty() && seq >= rob_.front().seq &&
               seq - rob_.front().seq < rob_.size();
    }
    void markDone(std::uint64_t seq, Cycle now);
    void dispatch(Cycle now);
    void issue(Cycle now);
    void complete(Cycle now);
    void retire(Cycle now);

    BackendConfig config_;
    const Trace &trace_;
    MemoryHierarchy &memory_;
    DecodeQueue &decode_queue_;

    CircularBuffer<RobEntry> rob_;

    // --- SoA mirrors of per-entry scheduling state, indexed by
    // seq & slot_mask_ (see file comment). slot_deps_ counts producers
    // that were in the ROB and not yet Done when the consumer
    // dispatched; it reaches zero exactly when the original
    // sourcesReady() scan would first report true.
    std::uint32_t slot_mask_ = 0;
    std::vector<std::uint8_t> slot_state_;
    std::vector<std::uint8_t> slot_deps_;
    std::vector<std::uint64_t> slot_trace_index_;
    /**
     * Pooled intrusive waiter lists: node id `slot * 2 + src_operand`
     * lives in waiter_next_; waiter_head_[p] chains the consumers of
     * producer slot p. No allocation after construction — a consumer
     * occupies at most its own two nodes.
     */
    std::vector<std::uint32_t> waiter_head_;
    std::vector<std::uint32_t> waiter_next_;

    /** kWaiting entries with zero outstanding producers, whole ROB. */
    std::size_t ready_count_ = 0;

    /**
     * True when some kWaiting entry inside the scheduler window may
     * have ready sources — maintained as a byproduct of issue() (port
     * or L1-D backpressure leftovers) and dispatch() (newly dispatched
     * entries with no outstanding producers), so nextEventCycle() can
     * answer in O(1) instead of rescanning the window. Conservative
     * true is always safe; it only costs a no-op tick.
     */
    bool ready_waiting_ = true;
    std::uint64_t next_seq_ = 0;
    std::uint64_t retired_total_ = 0;
    std::priority_queue<ExecEvent, std::vector<ExecEvent>,
                        std::greater<ExecEvent>>
        exec_done_;

    /** Architectural register -> sequence number of the last producer. */
    std::array<std::uint64_t, 256> producers_;

    /** Outstanding load request id -> producing sequence number. */
    FlatMap<std::uint64_t> inflight_loads_;

    BackendStats stats_;
};

} // namespace sipre

#endif // SIPRE_BACKEND_BACKEND_HPP
