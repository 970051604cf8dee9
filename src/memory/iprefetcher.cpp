#include "memory/iprefetcher.hpp"

#include <string>

#include "util/bits.hpp"
#include "util/logging.hpp"

namespace sipre
{

void
mergeByName(std::vector<HwPrefetchCounters> &totals,
            const std::vector<HwPrefetchCounters> &run)
{
    for (const HwPrefetchCounters &c : run) {
        HwPrefetchCounters *slot = nullptr;
        for (HwPrefetchCounters &total : totals) {
            if (total.name == c.name)
                slot = &total;
        }
        if (slot == nullptr) {
            slot = &totals.emplace_back();
            slot->name = c.name;
        }
        mergeInto(*slot, c);
    }
}

std::unique_ptr<InstrPrefetcher>
makeInstrPrefetcher(IPrefetcherKind kind)
{
    switch (kind) {
      case IPrefetcherKind::kNone:
        return nullptr;
      case IPrefetcherKind::kNextLine:
        return std::make_unique<NextLinePrefetcher>();
      case IPrefetcherKind::kEipLite:
        return std::make_unique<EipLitePrefetcher>();
      case IPrefetcherKind::kFdip:
      case IPrefetcherKind::kMana:
      case IPrefetcherKind::kFdipMana:
        // Built and wired by src/hwpf/ (they need front-end hooks);
        // the hierarchy must leave the slot empty for them.
        return nullptr;
    }
    panic("unknown instruction prefetcher kind " +
          std::to_string(static_cast<unsigned>(kind)));
}

void
NextLinePrefetcher::onAccess(Addr line_addr, bool hit, Cycle)
{
    if (hit)
        return;
    for (unsigned d = 1; d <= degree_; ++d)
        emit(line_addr + (Addr{d} << 6));
}

EipLitePrefetcher::EipLitePrefetcher(std::uint32_t table_entries,
                                     std::uint32_t history_depth,
                                     Cycle target_distance)
    : InstrPrefetcher("eip"), table_(table_entries),
      history_(history_depth), target_distance_(target_distance)
{
    SIPRE_ASSERT(isPowerOfTwo(table_entries),
                 "entangling table size must be a power of two");
}

EipLitePrefetcher::Entry &
EipLitePrefetcher::entryFor(Addr trigger)
{
    const std::size_t idx = mix64(trigger) & (table_.size() - 1);
    return table_[idx];
}

void
EipLitePrefetcher::onAccess(Addr line_addr, bool hit, Cycle now)
{
    // Trigger lookup: does an entangling entry fire for this line?
    Entry &entry = entryFor(line_addr);
    if (entry.trigger == line_addr) {
        for (Addr target : entry.targets) {
            if (target != kNoAddr)
                emit(target);
        }
    }

    if (!hit) {
        // Entangle this miss with the access seen roughly one memory
        // latency earlier so the prefetch can be timely next time.
        HistoryItem best{};
        for (std::size_t i = 0; i < history_.size(); ++i) {
            const HistoryItem &item = history_.at(i);
            if (now - item.when >= target_distance_)
                best = item;
        }
        if (best.line != kNoAddr && best.line != line_addr) {
            Entry &trig = entryFor(best.line);
            if (trig.trigger != best.line) {
                trig = Entry{};
                trig.trigger = best.line;
            }
            bool already = false;
            for (Addr target : trig.targets)
                already |= target == line_addr;
            if (!already) {
                trig.targets[trig.next_slot] = line_addr;
                trig.next_slot =
                    static_cast<std::uint8_t>((trig.next_slot + 1) % kWays);
            }
        }
    }

    if (history_.full())
        history_.pop();
    history_.push(HistoryItem{line_addr, now});
}

} // namespace sipre
