#include "memory/hierarchy.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace sipre
{

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &config)
{
    dram_ = std::make_unique<Dram>(config.dram);
    llc_ = std::make_unique<Cache>(config.llc, dram_.get());
    llc_view_ = llc_.get();
    dram_view_ = dram_.get();
    l2_ = std::make_unique<Cache>(config.l2, llc_.get());
    wireUpperLevels(config);
}

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &config,
                                 MemoryDevice *shared_lower,
                                 Cache *shared_llc, Dram *shared_dram,
                                 std::uint8_t core_id)
    : core_id_(core_id), owns_shared_(false)
{
    llc_view_ = shared_llc;
    dram_view_ = shared_dram;
    l2_ = std::make_unique<Cache>(config.l2, shared_lower);
    wireUpperLevels(config);
}

void
MemoryHierarchy::wireUpperLevels(const HierarchyConfig &config)
{
    l1i_ = std::make_unique<Cache>(config.l1i, l2_.get());
    l1d_ = std::make_unique<Cache>(config.l1d, l2_.get());
    dprefetcher_ = makeDataPrefetcher(config.l1d_prefetcher);

    l1i_->onComplete = [this](const MemRequest &req) {
        if (req.type != AccessType::kPrefetch)
            ifetch_done_.push_back(req);
    };
    l1d_->onComplete = [this](const MemRequest &req) {
        if (req.type == AccessType::kLoad)
            data_done_.push_back(req);
    };
    if (auto pf = makeInstrPrefetcher(config.l1i_prefetcher))
        installIPrefetcher(std::move(pf));
}

void
MemoryHierarchy::installIPrefetcher(std::unique_ptr<InstrPrefetcher> pf)
{
    SIPRE_ASSERT(pf != nullptr, "installIPrefetcher needs a component");
    SIPRE_ASSERT(iprefetchers_.size() < 255,
                 "pf_origin is a uint8_t: at most 255 components");
    iprefetchers_.push_back(std::move(pf));
    if (iprefetchers_.size() > 1)
        return;
    // First component: hook the L1-I. The callbacks stay unset on an
    // unprefetched hierarchy so iprefetcher=none runs take the exact
    // pre-hook path.
    l1i_->onAccess = [this](Addr line, AccessType, bool hit) {
        for (auto &component : iprefetchers_)
            component->onAccess(line, hit, now_);
    };
    l1i_->onPrefetchOutcome = [this](std::uint8_t origin,
                                     PrefetchOutcome outcome) {
        if (origin == 0 || origin > iprefetchers_.size())
            return;
        HwPrefetchCounters &c = iprefetchers_[origin - 1]->counters();
        switch (outcome) {
          case PrefetchOutcome::kUseful:
            ++c.useful;
            break;
          case PrefetchOutcome::kLate:
            ++c.late;
            break;
          case PrefetchOutcome::kPollutedEvict:
            ++c.polluting;
            break;
          case PrefetchOutcome::kDemotedFill:
            ++c.demoted_fills;
            break;
        }
    };
}

ReqId
MemoryHierarchy::issueIFetch(Addr addr, Cycle now)
{
    SIPRE_ASSERT(l1i_->canAccept(), "I-fetch issued with a full L1I queue");
    MemRequest req;
    req.id = next_id_++;
    req.line_addr = lineOf(addr);
    req.type = AccessType::kIFetch;
    req.core = core_id_;
    req.issue_cycle = now;
    l1i_->enqueue(req);
    return req.id;
}

ReqId
MemoryHierarchy::issueIPrefetch(Addr addr, Cycle now, std::uint8_t pf_origin)
{
    const Addr line = lineOf(addr);
    // Drop prefetches for lines already present or in flight.
    if (l1i_->presentOrPending(line) || !l1i_->canAccept())
        return 0;
    MemRequest req;
    req.id = next_id_++;
    req.line_addr = line;
    req.type = AccessType::kPrefetch;
    req.core = core_id_;
    req.pf_origin = pf_origin;
    req.issue_cycle = now;
    l1i_->enqueue(req);
    return req.id;
}

ReqId
MemoryHierarchy::issueLoad(Addr addr, Cycle now, Addr pc)
{
    SIPRE_ASSERT(l1d_->canAccept(), "load issued with a full L1D queue");
    MemRequest req;
    req.id = next_id_++;
    req.line_addr = lineOf(addr);
    req.type = AccessType::kLoad;
    req.core = core_id_;
    req.issue_cycle = now;
    if (dprefetcher_ != nullptr && pc != 0) {
        dprefetcher_->onLoad(pc, addr,
                             l1d_->contains(req.line_addr));
    }
    l1d_->enqueue(req);
    return req.id;
}

ReqId
MemoryHierarchy::issueDPrefetch(Addr addr, Cycle now)
{
    const Addr line = lineOf(addr);
    if (l1d_->presentOrPending(line) || !l1d_->canAccept())
        return 0;
    MemRequest req;
    req.id = next_id_++;
    req.line_addr = line;
    req.type = AccessType::kPrefetch;
    req.core = core_id_;
    req.issue_cycle = now;
    l1d_->enqueue(req);
    return req.id;
}

ReqId
MemoryHierarchy::issueStore(Addr addr, Cycle now)
{
    SIPRE_ASSERT(l1d_->canAccept(), "store issued with a full L1D queue");
    MemRequest req;
    req.id = next_id_++;
    req.line_addr = lineOf(addr);
    req.type = AccessType::kStore;
    req.core = core_id_;
    req.issue_cycle = now;
    l1d_->enqueue(req);
    return req.id;
}

void
MemoryHierarchy::tick(Cycle now)
{
    now_ = now;
    if (owns_shared_) {
        dram_->tick(now);
        llc_->tick(now);
    }
    {
        trace_obs::BusyScope scope(busy_, trace_obs::BusyComponent::kL2);
        l2_->tick(now);
    }
    {
        trace_obs::BusyScope scope(busy_, trace_obs::BusyComponent::kL1d);
        l1d_->tick(now);
    }
    {
        trace_obs::BusyScope scope(busy_, trace_obs::BusyComponent::kL1i);
        l1i_->tick(now);
    }

    std::uint8_t origin = 0;
    for (auto &component : iprefetchers_) {
        ++origin;
        if (!component->hasCandidates())
            continue;
        pf_scratch_.clear();
        component->drainInto(pf_scratch_, kIssuePerTick, now);
        HwPrefetchCounters &c = component->counters();
        for (Addr line : pf_scratch_) {
            if (issueIPrefetch(line, now, origin) != 0)
                ++c.issued;
            else
                ++c.filtered;
        }
    }
    if (dprefetcher_ != nullptr) {
        auto &cands = dprefetcher_->candidates();
        for (Addr addr : cands)
            issueDPrefetch(addr, now);
        cands.clear();
    }
}

Cycle
MemoryHierarchy::nextEventCycle(Cycle now) const
{
    // Undrained completion ports or pending prefetcher candidates mean
    // work on the very next tick. (Both are normally drained within the
    // cycle that produced them; candidates can outlive it when the core
    // issues loads after the hierarchy already ticked.)
    if (!ifetch_done_.empty() || !data_done_.empty())
        return now + 1;
    for (const auto &component : iprefetchers_) {
        if (component->hasCandidates())
            return now + 1;
    }
    if (dprefetcher_ != nullptr && !dprefetcher_->candidates().empty())
        return now + 1;

    Cycle next = kNoCycle;
    if (owns_shared_) {
        next = dram_->nextEventCycle(now);
        next = std::min(next, llc_->nextEventCycle(now));
    }
    next = std::min(next, l2_->nextEventCycle(now));
    next = std::min(next, l1d_->nextEventCycle(now));
    next = std::min(next, l1i_->nextEventCycle(now));
    return next;
}

Cycle
MemoryHierarchy::llcAccessLatency() const
{
    return l1i_->config().latency + l2_->config().latency +
           llc_view_->config().latency;
}

} // namespace sipre
