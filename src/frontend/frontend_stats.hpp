/**
 * @file
 * Front-end characterization counters: everything needed to regenerate
 * the paper's Figures 8-11 and the Scenario 1/2/3 taxonomy of Sec. III.
 */
#ifndef SIPRE_FRONTEND_FRONTEND_STATS_HPP
#define SIPRE_FRONTEND_FRONTEND_STATS_HPP

#include <cstdint>

#include "util/field_list.hpp"
#include "util/statistics.hpp"

namespace sipre
{

/** Counters maintained by the decoupled front-end. */
struct FrontendStats
{
    // --- taxonomy (Sec. III), counted per cycle with a non-empty FTQ ---
    std::uint64_t scenario1_cycles = 0; ///< shoot-through: head ready
    std::uint64_t scenario2_cycles = 0; ///< head stalling, others complete
    std::uint64_t scenario3_cycles = 0; ///< head + followers stalling
    std::uint64_t ftq_empty_cycles = 0;

    // --- Fig. 9: stalls incurred by the head entry ----------------------
    std::uint64_t head_stall_cycles = 0;

    // --- Fig. 10: entries forced to wait on a stalling head -------------
    std::uint64_t waiting_entry_events = 0;

    // --- Fig. 11: entries promoted to head before completing fetch ------
    std::uint64_t partial_head_events = 0;

    // --- Fig. 8: fetch latency split by where the entry completed -------
    RunningStat head_fetch_latency;     ///< completed at (or as) head
    RunningStat nonhead_fetch_latency;  ///< completed behind the head

    /** Latency distributions (8-cycle buckets, 32 buckets + overflow). */
    Histogram head_latency_hist{8, 32};
    Histogram nonhead_latency_hist{8, 32};

    // --- L1-I traffic (Sec. V-B claim) -----------------------------------
    std::uint64_t l1i_fetches_issued = 0;
    std::uint64_t l1i_fetches_merged = 0; ///< FTQ same-line aliasing

    // --- general front-end activity --------------------------------------
    std::uint64_t blocks_allocated = 0;
    std::uint64_t instructions_delivered = 0;
    std::uint64_t sw_prefetches_triggered = 0;

    // --- stall machinery ---------------------------------------------------
    std::uint64_t mispredict_stalls = 0;
    std::uint64_t btb_miss_stalls = 0;
    std::uint64_t stall_cycles_mispredict = 0;
    std::uint64_t stall_cycles_btb_miss = 0;
    std::uint64_t pfc_resumes = 0;
    std::uint64_t wrong_path_prefetches = 0;
    std::uint64_t itlb_walks = 0;
};

/** FrontendStats' field list (see util/field_list.hpp). */
template <typename Visitor, FieldsOf<FrontendStats>... S>
void
forEachField(Visitor &&visit, S &...s)
{
    visit("scenario1_cycles", s.scenario1_cycles...);
    visit("scenario2_cycles", s.scenario2_cycles...);
    visit("scenario3_cycles", s.scenario3_cycles...);
    visit("ftq_empty_cycles", s.ftq_empty_cycles...);
    visit("head_stall_cycles", s.head_stall_cycles...);
    visit("waiting_entry_events", s.waiting_entry_events...);
    visit("partial_head_events", s.partial_head_events...);
    visit("l1i_fetches_issued", s.l1i_fetches_issued...);
    visit("l1i_fetches_merged", s.l1i_fetches_merged...);
    visit("blocks_allocated", s.blocks_allocated...);
    visit("instructions_delivered", s.instructions_delivered...);
    visit("sw_prefetches_triggered", s.sw_prefetches_triggered...);
    visit("mispredict_stalls", s.mispredict_stalls...);
    visit("btb_miss_stalls", s.btb_miss_stalls...);
    visit("stall_cycles_mispredict", s.stall_cycles_mispredict...);
    visit("stall_cycles_btb_miss", s.stall_cycles_btb_miss...);
    visit("pfc_resumes", s.pfc_resumes...);
    visit("wrong_path_prefetches", s.wrong_path_prefetches...);
    visit("head_fetch_latency", s.head_fetch_latency...);
    visit("nonhead_fetch_latency", s.nonhead_fetch_latency...);
    // After the RunningStats in the text format; the JSON writer groups
    // it with the other scalars.
    visit("itlb_walks", s.itlb_walks...);
    visit("head_latency_hist", s.head_latency_hist...);
    visit("nonhead_latency_hist", s.nonhead_latency_hist...);
}

} // namespace sipre

#endif // SIPRE_FRONTEND_FRONTEND_STATS_HPP
