#include "memory/memory_controller.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace sipre
{

MemoryController::MemoryController(const HierarchyConfig &hierarchy,
                                   const MemoryControllerConfig &config,
                                   std::uint32_t cores)
    : config_(config)
{
    SIPRE_ASSERT(cores > 0, "memory controller needs at least one core");
    SIPRE_ASSERT(config_.port_queue_size > 0, "need a nonempty port queue");
    SIPRE_ASSERT(config_.grants_per_cycle > 0, "need grant bandwidth");
    dram_ = std::make_unique<Dram>(hierarchy.dram);
    llc_ = std::make_unique<Cache>(hierarchy.llc, dram_.get());
    ports_.reserve(cores);
    for (std::uint32_t i = 0; i < cores; ++i)
        ports_.push_back(std::make_unique<Port>(this, i));
    port_stats_.resize(cores);
    llc_core_hits_.assign(cores, 0);
    llc_core_misses_.assign(cores, 0);
    llc_->onDemandLookup = [this](const MemRequest &req, bool hit) {
        const std::uint32_t core =
            std::min<std::uint32_t>(req.core, this->cores() - 1);
        if (hit)
            ++llc_core_hits_[core];
        else
            ++llc_core_misses_[core];
    };
}

bool
MemoryController::Port::canAccept() const
{
    // With nothing queued anywhere this port is a pass-through, so the
    // LLC's own back-pressure is the answer — exactly what the L2 would
    // see talking to the LLC directly. Once anything is queued, the
    // bounded queue takes over.
    if (queue_.empty() && owner_->total_queued_ == 0)
        return owner_->llc_->canAccept();
    return queue_.size() < owner_->config_.port_queue_size;
}

void
MemoryController::Port::enqueue(MemRequest req)
{
    if (queue_.empty() && owner_->total_queued_ == 0 &&
        owner_->llc_->canAccept()) {
        ++owner_->port_stats_[core_].bypassed;
        owner_->llc_->enqueue(req);
        return;
    }
    SIPRE_ASSERT(queue_.size() < owner_->config_.port_queue_size,
                 "enqueue into a full controller port");
    ++owner_->port_stats_[core_].queued;
    queue_.push_back(req);
    ++owner_->total_queued_;
}

void
MemoryController::tick(Cycle now)
{
    {
        trace_obs::BusyScope scope(busy_, trace_obs::BusyComponent::kDram);
        dram_->tick(now);
    }
    {
        trace_obs::BusyScope scope(busy_, trace_obs::BusyComponent::kLlc);
        llc_->tick(now);
    }
    depth_ = dram_->pendingRequests();
    dram_depth_.add(depth_);

    // Round-robin grant: starting from rr_next_, hand queued requests
    // to the LLC until the grant bandwidth or the LLC's input queue is
    // exhausted. Requests granted here are looked up by the LLC on its
    // next tick (one arbitration cycle), which is the contention cost
    // the bypass path avoids.
    std::uint32_t grants = 0;
    while (grants < config_.grants_per_cycle && total_queued_ > 0 &&
           llc_->canAccept()) {
        while (ports_[rr_next_]->queue_.empty())
            rr_next_ = (rr_next_ + 1) % cores();
        Port &port = *ports_[rr_next_];
        llc_->enqueue(port.queue_.front());
        port.queue_.pop_front();
        --total_queued_;
        ++port_stats_[rr_next_].grants;
        ++grants;
        rr_next_ = (rr_next_ + 1) % cores();
    }
}

Cycle
MemoryController::nextEventCycle(Cycle now) const
{
    if (total_queued_ > 0)
        return now + 1;
    return std::min(dram_->nextEventCycle(now),
                    llc_->nextEventCycle(now));
}

void
MemoryController::resetStats()
{
    llc_->resetStats();
    dram_->resetStats();
    std::fill(port_stats_.begin(), port_stats_.end(), PortStats{});
    std::fill(llc_core_hits_.begin(), llc_core_hits_.end(), 0);
    std::fill(llc_core_misses_.begin(), llc_core_misses_.end(), 0);
    dram_depth_.reset();
}

} // namespace sipre
