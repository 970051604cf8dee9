/**
 * @file
 * BranchUnit: the front-end's complete prediction engine (BTB, direction
 * predictor, RAS, indirect predictor, speculative GHR), as sketched in
 * the paper's Fig. 2.
 *
 * The FDP asks the unit for a prediction at every branch it inserts into
 * the FTQ; because the simulator is trace-driven, the FDP then compares
 * the prediction with the committed outcome to decide whether fetch-ahead
 * continues seamlessly or must stall until resolution.
 */
#ifndef SIPRE_BRANCH_UNIT_HPP
#define SIPRE_BRANCH_UNIT_HPP

#include <cstdint>
#include <memory>
#include <optional>

#include "branch/btb.hpp"
#include "branch/direction_predictor.hpp"
#include "branch/history.hpp"
#include "branch/indirect.hpp"
#include "branch/ras.hpp"
#include "util/field_list.hpp"
#include "trace/instruction.hpp"

namespace sipre
{

/** BranchUnit configuration. */
struct BranchUnitConfig
{
    DirectionPredictorKind direction =
        DirectionPredictorKind::kHashedPerceptron;
    std::uint32_t btb_entries = 8192;
    std::uint32_t btb_ways = 8;
    std::uint32_t ras_depth = 32;
    std::uint32_t indirect_entries = 16384;

    /**
     * Ishii-style GHR filter: when true, conditional branches that miss
     * in the BTB do not shift into the global history (they look like
     * sequential fetch to the run-ahead engine).
     */
    bool ghr_filter_btb_miss = true;
};

/** What the unit predicted for one branch (consumed by the FDP). */
struct BranchPrediction
{
    bool btb_hit = false;
    bool predicted_taken = false;
    Addr predicted_target = kNoAddr;  ///< where fetch-ahead goes if taken
    std::uint64_t history_before = 0; ///< GHR at prediction (for training)
    std::uint64_t path_before = 0;    ///< path history at prediction
};

/** Snapshot of speculative state, restored on squash. */
struct BranchCheckpoint
{
    std::uint64_t ghr = 0;
    std::uint64_t path = 0;
    ReturnAddressStack::Checkpoint ras;
};

/**
 * Allocation-free checkpoint for the FDP's per-branch snapshot. Valid
 * to restore only while at most one predictAndSpeculate() has run since
 * capture (see ReturnAddressStack::LightCheckpoint) — exactly the FDP's
 * situation: it checkpoints immediately before predicting a branch, and
 * a wrong prediction stalls fetch-ahead, so no further speculation
 * happens before the repair.
 */
struct BranchLightCheckpoint
{
    std::uint64_t ghr = 0;
    std::uint64_t path = 0;
    ReturnAddressStack::LightCheckpoint ras;
};

/** Aggregate prediction statistics. */
struct BranchUnitStats
{
    std::uint64_t cond_predictions = 0;
    std::uint64_t cond_mispredictions = 0;
    std::uint64_t btb_miss_taken = 0;   ///< taken branch unknown to BTB
    std::uint64_t target_mispredictions = 0;
};

/** BranchUnitStats' field list (see util/field_list.hpp). */
template <typename Visitor, FieldsOf<BranchUnitStats>... S>
void
forEachField(Visitor &&visit, S &...s)
{
    visit("cond_predictions", s.cond_predictions...);
    visit("cond_mispredictions", s.cond_mispredictions...);
    visit("btb_miss_taken", s.btb_miss_taken...);
    visit("target_mispredictions", s.target_mispredictions...);
}

/**
 * The assembled prediction engine. See file comment.
 */
class BranchUnit
{
  public:
    explicit BranchUnit(const BranchUnitConfig &config);

    /**
     * Predict the branch `br` (class/PC from the trace) and update
     * speculative state (GHR shift, RAS push/pop) accordingly.
     */
    BranchPrediction predictAndSpeculate(const TraceInstruction &br);

    /** Snapshot speculative state (call before predictAndSpeculate). */
    BranchCheckpoint checkpoint() const;

    /** Restore a snapshot (on squash of the predicting branch). */
    void restore(const BranchCheckpoint &cp);

    /** Allocation-free snapshot; see BranchLightCheckpoint's contract. */
    BranchLightCheckpoint lightCheckpoint() const;
    void restore(const BranchLightCheckpoint &cp);

    /**
     * Train with the committed outcome. `pred` must be the value
     * returned by predictAndSpeculate for this instance of the branch.
     */
    void resolve(const TraceInstruction &br, const BranchPrediction &pred);

    /**
     * Repair the speculative GHR after a misprediction: restore the
     * checkpoint, then shift the committed outcome (only if the branch
     * is visible to the history per the configured filter).
     */
    void repairHistory(const BranchCheckpoint &cp,
                       const TraceInstruction &br, bool btb_hit_now);
    void repairHistory(const BranchLightCheckpoint &cp,
                       const TraceInstruction &br, bool btb_hit_now);

    const GlobalHistory &history() const { return ghr_; }

    /** Hash of recent taken-branch targets (feeds the indirect tables). */
    std::uint64_t pathHistory() const { return path_; }

    /**
     * Side-effect-free probe used by wrong-path shadow fetch: what would
     * the front-end predict at pc? Returns nothing when the BTB does not
     * recognize pc as a branch. Does not update history, RAS, or tables.
     */
    struct ShadowPrediction
    {
        bool taken;
        Addr target;
    };
    std::optional<ShadowPrediction> shadowProbe(Addr pc);

    Btb &btb() { return btb_; }
    const Btb &btb() const { return btb_; }
    ReturnAddressStack &ras() { return ras_; }
    const BranchUnitStats &stats() const { return stats_; }
    const BranchUnitConfig &config() const { return config_; }

    /** Zero all event counters (end-of-warmup). Tables are kept warm. */
    void
    resetStats()
    {
        stats_ = BranchUnitStats{};
        btb_.resetStats();
        indirect_.resetStats();
    }

  private:
    void shiftPath(Addr target);
    void replayCommitted(const TraceInstruction &br, bool btb_hit_now);

    BranchUnitConfig config_;
    Btb btb_;
    std::unique_ptr<DirectionPredictor> direction_;
    ReturnAddressStack ras_;
    IndirectPredictor indirect_;
    GlobalHistory ghr_;
    std::uint64_t path_ = 0;
    BranchUnitStats stats_;
};

} // namespace sipre

#endif // SIPRE_BRANCH_UNIT_HPP
