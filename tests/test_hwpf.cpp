/**
 * @file
 * Unit tests for the first-class hardware instruction prefetchers in
 * src/hwpf/: FDIP's FTQ-directed queue and drop-on-redirect semantics,
 * MANA-lite's spatial-region training and stream chase, the TLB-aware
 * wrapper's drop/defer policies, and the builder's wiring shapes.
 */
#include <gtest/gtest.h>

#include <vector>

#include "hwpf/builder.hpp"
#include "hwpf/fdip.hpp"
#include "hwpf/mana.hpp"
#include "hwpf/tlb_aware.hpp"
#include "memory/tlb.hpp"

namespace sipre::hwpf
{
namespace
{

std::vector<Addr>
drainAll(InstrPrefetcher &pf, Cycle now = 0)
{
    std::vector<Addr> out;
    while (pf.hasCandidates()) {
        if (pf.drainInto(out, 16, now) == 0)
            break; // deferred-only queue that cannot release yet
    }
    return out;
}

TEST(Fdip, QueuesUpcomingLinesInWalkOrder)
{
    FdipPrefetcher fdip;
    fdip.onUpcomingLine(0x1000, 5);
    fdip.onUpcomingLine(0x1040, 5);
    fdip.onUpcomingLine(0x1000, 6); // dedup'd against the queue
    EXPECT_TRUE(fdip.hasCandidates());
    EXPECT_EQ(drainAll(fdip), (std::vector<Addr>{0x1000, 0x1040}));
    EXPECT_FALSE(fdip.hasCandidates());
}

TEST(Fdip, RedirectDiscardsTheQueue)
{
    FdipPrefetcher fdip;
    fdip.onUpcomingLine(0x2000, 1);
    fdip.onUpcomingLine(0x2040, 1);
    fdip.onUpcomingLine(0x2080, 1);
    fdip.onRedirect(2);
    EXPECT_FALSE(fdip.hasCandidates());
    EXPECT_EQ(fdip.counters().dropped_redirect, 3u);

    // The queue is usable again after the squash.
    fdip.onUpcomingLine(0x3000, 3);
    EXPECT_EQ(drainAll(fdip), (std::vector<Addr>{0x3000}));
}

TEST(Mana, RecordsRegionsFromTheMissStream)
{
    ManaLitePrefetcher mana;
    EXPECT_EQ(mana.recordedRegions(), 0u);

    // Region 1: trigger 0x10000, footprint lines +1 and +2.
    mana.onAccess(0x10000, false, 0);
    mana.onAccess(0x10040, false, 1);
    mana.onAccess(0x10080, true, 2); // hits inside the region train too
    EXPECT_EQ(mana.recordedRegions(), 0u); // still open

    // A miss outside the span closes it and anchors region 2.
    mana.onAccess(0x20000, false, 3);
    EXPECT_EQ(mana.recordedRegions(), 1u);
    mana.onAccess(0x20040, false, 4);
    mana.onAccess(0x30000, false, 5); // closes region 2
    EXPECT_EQ(mana.recordedRegions(), 2u);
}

TEST(Mana, PredictsFootprintAndChasesSuccessors)
{
    ManaLitePrefetcher mana;
    // Train: region 0x10000 {+1,+2} -> region 0x20000 {+1} -> 0x30000.
    mana.onAccess(0x10000, false, 0);
    mana.onAccess(0x10040, false, 1);
    mana.onAccess(0x10080, false, 2);
    mana.onAccess(0x20000, false, 3);
    mana.onAccess(0x20040, false, 4);
    mana.onAccess(0x30000, false, 5);
    drainAll(mana); // discard anything queued during training

    // Revisiting the first trigger streams both recorded regions: the
    // trigger's own footprint, then the successor trigger plus its
    // footprint. 0x30000 is still open, so the chase stops there.
    mana.onAccess(0x10000, true, 6);
    EXPECT_EQ(drainAll(mana),
              (std::vector<Addr>{0x10040, 0x10080, 0x20000, 0x20040}));
}

TEST(Mana, RefreshedFootprintSurvivesPrefetchHits)
{
    ManaLitePrefetcher mana;
    mana.onAccess(0x10000, false, 0);
    mana.onAccess(0x10040, false, 1);
    mana.onAccess(0x20000, false, 2); // close region 1
    mana.onAccess(0x30000, false, 3); // close region 2
    drainAll(mana);

    // Second visit: 0x10040 now *hits* (it was prefetched). The region
    // re-records on close with the footprint bit still set.
    mana.onAccess(0x10000, true, 4);
    mana.onAccess(0x10040, true, 5);
    mana.onAccess(0x20000, false, 6);
    drainAll(mana);
    mana.onAccess(0x10000, true, 7);
    const std::vector<Addr> predicted = drainAll(mana);
    EXPECT_FALSE(predicted.empty());
    EXPECT_EQ(predicted.front(), 0x10040u);
}

TEST(TlbAware, NullTlbIsInert)
{
    TlbAwarePrefetcher wrapper(std::make_unique<FdipPrefetcher>());
    wrapper.onUpcomingLine(0x1000, 0);
    wrapper.onUpcomingLine(0x9000, 0);
    EXPECT_EQ(drainAll(wrapper), (std::vector<Addr>{0x1000, 0x9000}));
    EXPECT_EQ(wrapper.counters().dropped_tlb, 0u);
    EXPECT_EQ(wrapper.counters().deferred_tlb, 0u);
}

TEST(TlbAware, DropsCandidatesThatWouldPageWalk)
{
    HwPrefetchConfig config;
    config.tlb_defer = false;
    TlbAwarePrefetcher wrapper(std::make_unique<FdipPrefetcher>(), config);
    Tlb tlb{TlbConfig{}};
    tlb.lookup(0x5000); // install the 4 KiB page holding 0x5040
    wrapper.setTlb(&tlb);

    wrapper.onUpcomingLine(0x5040, 0); // mapped: passes
    wrapper.onUpcomingLine(0x9000, 0); // unmapped: dropped
    EXPECT_EQ(drainAll(wrapper), (std::vector<Addr>{0x5040}));
    EXPECT_EQ(wrapper.counters().dropped_tlb, 1u);
    EXPECT_EQ(wrapper.deferredCount(), 0u);
}

TEST(TlbAware, DefersUntilTheTranslationArrives)
{
    HwPrefetchConfig config;
    config.tlb_defer = true;
    config.tlb_defer_window = 64;
    TlbAwarePrefetcher wrapper(std::make_unique<FdipPrefetcher>(), config);
    Tlb tlb{TlbConfig{}};
    wrapper.setTlb(&tlb);

    wrapper.onUpcomingLine(0x9000, 0);
    std::vector<Addr> out;
    EXPECT_EQ(wrapper.drainInto(out, 8, 0), 0u);
    EXPECT_EQ(wrapper.deferredCount(), 1u);
    EXPECT_EQ(wrapper.counters().deferred_tlb, 1u);
    EXPECT_TRUE(wrapper.hasCandidates()); // still claims the event

    // The demand stream installs the translation; the next drain
    // releases the parked candidate.
    tlb.lookup(0x9000);
    EXPECT_EQ(wrapper.drainInto(out, 8, 10), 1u);
    EXPECT_EQ(out, (std::vector<Addr>{0x9000}));
    EXPECT_EQ(wrapper.deferredCount(), 0u);
    EXPECT_EQ(wrapper.counters().dropped_tlb, 0u);
}

TEST(TlbAware, ExpiresDeferredCandidatesPastTheWindow)
{
    HwPrefetchConfig config;
    config.tlb_defer = true;
    config.tlb_defer_window = 64;
    TlbAwarePrefetcher wrapper(std::make_unique<FdipPrefetcher>(), config);
    Tlb tlb{TlbConfig{}};
    wrapper.setTlb(&tlb);

    wrapper.onUpcomingLine(0x9000, 0);
    std::vector<Addr> out;
    EXPECT_EQ(wrapper.drainInto(out, 8, 0), 0u); // parks: deadline = 64
    ASSERT_EQ(wrapper.deferredCount(), 1u);
    EXPECT_EQ(wrapper.drainInto(out, 8, 100), 0u);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(wrapper.deferredCount(), 0u);
    EXPECT_EQ(wrapper.counters().dropped_tlb, 1u);
}

TEST(TlbAware, RedirectDropsDeferredCandidatesToo)
{
    HwPrefetchConfig config;
    config.tlb_defer = true;
    TlbAwarePrefetcher wrapper(std::make_unique<FdipPrefetcher>(), config);
    Tlb tlb{TlbConfig{}};
    wrapper.setTlb(&tlb);

    wrapper.onUpcomingLine(0x9000, 0);
    std::vector<Addr> out;
    wrapper.drainInto(out, 8, 0); // parks 0x9000
    ASSERT_EQ(wrapper.deferredCount(), 1u);

    wrapper.onRedirect(1);
    EXPECT_EQ(wrapper.deferredCount(), 0u);
    EXPECT_FALSE(wrapper.hasCandidates());
    EXPECT_EQ(wrapper.counters().dropped_redirect, 1u);
}

TEST(TlbAware, AbsorbsInnerDropCounters)
{
    TlbAwarePrefetcher wrapper(std::make_unique<FdipPrefetcher>());
    // Overflow the inner FDIP queue through the wrapper's observer face.
    for (Addr line = 0; line < 0x80; ++line)
        wrapper.onUpcomingLine(line << 6, 0);
    wrapper.onRedirect(1);
    // All drops surface on the wrapper's counter block: 64 redirected
    // (the full inner queue) + 64 lost at the candidate cap.
    EXPECT_EQ(wrapper.counters().dropped_redirect, 64u);
    EXPECT_EQ(wrapper.counters().dropped_overflow, 64u);
    EXPECT_EQ(wrapper.inner().counters().dropped_redirect, 0u);
    EXPECT_EQ(wrapper.inner().counters().dropped_overflow, 0u);
}

TEST(Builder, NonHwpfKindsBuildNothing)
{
    for (const auto kind :
         {IPrefetcherKind::kNone, IPrefetcherKind::kNextLine,
          IPrefetcherKind::kEipLite}) {
        const BuiltPrefetch built = buildPrefetchers(kind);
        EXPECT_TRUE(built.components.empty());
        EXPECT_EQ(built.ftq_observer, nullptr);
        EXPECT_TRUE(built.tlb_aware.empty());
    }
}

TEST(Builder, FdipShape)
{
    BuiltPrefetch built = buildPrefetchers(IPrefetcherKind::kFdip);
    ASSERT_EQ(built.components.size(), 1u);
    EXPECT_EQ(built.components[0]->counters().name, "fdip");
    // Default config wraps in the TLB-aware layer; the observer must be
    // the wrapper so deferred candidates drop on redirects too.
    ASSERT_EQ(built.tlb_aware.size(), 1u);
    EXPECT_EQ(built.ftq_observer,
              static_cast<FtqObserver *>(built.tlb_aware[0]));
    EXPECT_TRUE(built.demote_fills);
    EXPECT_GT(built.fdip_lookahead_blocks, 0u);
    EXPECT_GT(built.fdip_walk_blocks_per_cycle, 0u);
}

TEST(Builder, ManaShapeHasNoObserver)
{
    BuiltPrefetch built = buildPrefetchers(IPrefetcherKind::kMana);
    ASSERT_EQ(built.components.size(), 1u);
    EXPECT_EQ(built.components[0]->counters().name, "mana");
    EXPECT_EQ(built.ftq_observer, nullptr); // MANA is not FTQ-directed
    EXPECT_EQ(built.tlb_aware.size(), 1u);
}

TEST(Builder, FdipManaShapeAndPriorityOrder)
{
    BuiltPrefetch built = buildPrefetchers(IPrefetcherKind::kFdipMana);
    ASSERT_EQ(built.components.size(), 2u);
    // FDIP first: the FTQ-directed stream gets issue priority.
    EXPECT_EQ(built.components[0]->counters().name, "fdip");
    EXPECT_EQ(built.components[1]->counters().name, "mana");
    EXPECT_NE(built.ftq_observer, nullptr);
    EXPECT_EQ(built.tlb_aware.size(), 2u);
}

TEST(Builder, RawComponentsWithoutTlbWrapper)
{
    HwPrefetchConfig config;
    config.tlb_aware = false;
    config.demote_fills = false;
    BuiltPrefetch built =
        buildPrefetchers(IPrefetcherKind::kFdip, config);
    ASSERT_EQ(built.components.size(), 1u);
    EXPECT_TRUE(built.tlb_aware.empty());
    EXPECT_FALSE(built.demote_fills);
    // The observer is the bare FDIP component itself.
    EXPECT_EQ(built.ftq_observer,
              dynamic_cast<FtqObserver *>(built.components[0].get()));
}

TEST(Counters, ResetStatsKeepsNameAndQueue)
{
    FdipPrefetcher fdip;
    fdip.onUpcomingLine(0x1000, 0);
    fdip.onRedirect(0);
    fdip.onUpcomingLine(0x2000, 0);
    ASSERT_EQ(fdip.counters().dropped_redirect, 1u);

    fdip.resetStats();
    EXPECT_EQ(fdip.counters().name, "fdip");
    EXPECT_EQ(fdip.counters().dropped_redirect, 0u);
    EXPECT_TRUE(fdip.hasCandidates()); // queued work survives warmup
}

TEST(Counters, MergeByNameSumsMatchingComponentsInFirstSeenOrder)
{
    std::vector<HwPrefetchCounters> totals;
    HwPrefetchCounters fdip;
    fdip.name = "fdip";
    fdip.issued = 3;
    HwPrefetchCounters mana;
    mana.name = "mana";
    mana.useful = 5;
    mergeByName(totals, {fdip});
    mergeByName(totals, {mana, fdip});
    ASSERT_EQ(totals.size(), 2u);
    EXPECT_EQ(totals[0].name, "fdip");
    EXPECT_EQ(totals[0].issued, 6u);
    EXPECT_EQ(totals[1].name, "mana");
    EXPECT_EQ(totals[1].useful, 5u);
}

} // namespace
} // namespace sipre::hwpf
