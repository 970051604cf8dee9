#include "multicore/multicore.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "hwpf/builder.hpp"
#include "multicore/event_heap.hpp"
#include "util/logging.hpp"

namespace sipre
{

namespace
{
/** Must match the single-core Simulator's constants bit-for-bit. */
constexpr std::size_t kDecodeQueueSize = 64;
constexpr Cycle kDeadlockThreshold = 1'000'000;

} // namespace

MultiCoreSimulator::MultiCoreSimulator(
    const SimConfig &config, std::vector<const Trace *> traces,
    const MemoryControllerConfig &controller)
    : config_(config)
{
    SIPRE_ASSERT(!traces.empty(), "multi-core run needs at least one trace");
    controller_ = std::make_unique<MemoryController>(
        config_.memory, controller,
        static_cast<std::uint32_t>(traces.size()));

    cores_.reserve(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
        auto core = std::make_unique<Core>();
        core->trace = traces[i];
        core->memory = std::make_unique<MemoryHierarchy>(
            config_.memory, controller_->port(static_cast<std::uint32_t>(i)),
            &controller_->llc(), &controller_->dram(),
            static_cast<std::uint8_t>(i));
        core->decode_queue = std::make_unique<DecodeQueue>(kDecodeQueueSize);
        core->frontend = std::make_unique<DecoupledFrontEnd>(
            config_.frontend, *traces[i], *core->memory,
            *core->decode_queue);
        core->backend = std::make_unique<Backend>(
            config_.backend, *traces[i], *core->memory, *core->decode_queue);
        // Same hwpf wiring as the single-core Simulator: the managed
        // kinds need this core's front-end, so they are built here
        // rather than in the hierarchy factory.
        auto built = hwpf::buildPrefetchers(config_.memory.l1i_prefetcher);
        if (!built.components.empty()) {
            if (built.ftq_observer != nullptr) {
                core->frontend->setFtqObserver(
                    built.ftq_observer, built.fdip_lookahead_blocks,
                    built.fdip_walk_blocks_per_cycle);
            }
            for (auto *wrapper : built.tlb_aware)
                wrapper->setTlb(core->frontend->itlb());
            core->memory->l1i().setDemotePrefetchFills(built.demote_fills);
            for (auto &pf : built.components)
                core->memory->installIPrefetcher(std::move(pf));
        }
        core->total = traces[i]->size();
        core->warmup = static_cast<std::uint64_t>(
            static_cast<double>(core->total) * config_.warmup_fraction);
        core->warm = core->warmup == 0;

        // Same poke protocol as the single-core Simulator: the back-end
        // mutating front-end state mid-cycle forces a front-end tick.
        Core *cp = core.get();
        core->backend->onBranchDecoded = [cp](std::uint64_t index,
                                              Cycle now) {
            cp->poked = true;
            cp->frontend->onBranchDecoded(index, now);
        };
        core->backend->onBranchExecuted = [cp](std::uint64_t index,
                                               Cycle now) {
            cp->poked = true;
            cp->frontend->onBranchExecuted(index, now);
        };
        cores_.push_back(std::move(core));
    }
}

void
MultiCoreSimulator::setSwPrefetchTriggers(std::size_t core,
                                          const SwPrefetchTriggers *triggers)
{
    cores_[core]->frontend->setSwPrefetchTriggers(triggers);
}

void
MultiCoreSimulator::attachMetadataPreloader(
    std::size_t core, const MetadataPreloadConfig &config,
    std::unordered_map<Addr, std::vector<Addr>> metadata)
{
    Core *cp = cores_[core].get();
    cp->preloader =
        std::make_unique<MetadataPreloader>(config, std::move(metadata));
    // Chain onto any existing L1-I access hook (e.g. a HW prefetcher).
    auto previous = cp->memory->l1i().onAccess;
    cp->memory->l1i().onAccess = [cp, previous](Addr line, AccessType type,
                                                bool hit) {
        if (previous)
            previous(line, type, hit);
        if (type == AccessType::kIFetch)
            cp->preloader->onL1iAccess(line, cp->preloader_now);
    };
}

void
MultiCoreSimulator::enableScenarioTimeline(std::uint32_t window)
{
    for (auto &core : cores_)
        core->frontend->enableScenarioTimeline(window);
}

SimResult
MultiCoreSimulator::run()
{
    const bool fast_forward =
        config_.fast_forward && std::getenv("SIPRE_NO_SKIP") == nullptr;
    const std::size_t n = cores_.size();

    // One heap slot per tickable component: 0 is the shared memory
    // system (LLC + DRAM + arbiter), then each core's memory slice,
    // back-end, and front-end. The preloaders' claims are two queue
    // checks and fed by hooks firing inside the memory tick, so they
    // are evaluated fresh each cycle instead of being cached in a slot
    // (exactly as in the single-core loop).
    EventHeap heap(1 + 3 * n);
    const auto memSlot = [](std::size_t i) { return 1 + 3 * i; };
    const auto beSlot = [](std::size_t i) { return 2 + 3 * i; };
    const auto feSlot = [](std::size_t i) { return 3 + 3 * i; };

    Cycle cycle = 0;
    std::uint64_t last_retired_sum = 0;
    Cycle last_progress = 0;
    std::size_t running = n;

    while (running > 0) {
        if (!fast_forward) {
            controller_->tick(cycle);
            for (auto &cp : cores_) {
                Core &core = *cp;
                if (core.finished)
                    continue;
                core.preloader_now = cycle;
                core.memory->tick(cycle);
                if (core.preloader)
                    core.preloader->tick(cycle, *core.memory);
                core.backend->tick(cycle);
                core.frontend->tick(cycle);
            }
        } else {
            bool shared_ticked = false;
            bool any_core_mem_ticked = false;
            if (heap.get(0) <= cycle) {
                controller_->tick(cycle);
                shared_ticked = true;
            } else {
                controller_->accountSkippedCycles(1);
            }
            for (std::size_t i = 0; i < n; ++i) {
                Core &core = *cores_[i];
                if (core.finished)
                    continue;
                bool mem_ticked = false;
                bool pre_ticked = false;
                bool be_ticked = false;
                bool fe_ticked = false;
                // A shared tick can deliver fills synchronously into
                // this core's L2/L1s (and push writebacks), so the
                // private slice must tick whenever the shared side did.
                if (heap.get(memSlot(i)) <= cycle || shared_ticked) {
                    core.preloader_now = cycle;
                    core.memory->tick(cycle);
                    mem_ticked = true;
                    any_core_mem_ticked = true;
                }
                if (core.preloader &&
                    (cycle == 0 ||
                     core.preloader->nextEventCycle(cycle - 1) <= cycle)) {
                    core.preloader->tick(cycle, *core.memory);
                    pre_ticked = true;
                }
                const std::size_t decode_before = core.decode_queue->size();
                if (heap.get(beSlot(i)) <= cycle ||
                    !core.memory->dataCompleted().empty()) {
                    core.backend->tick(cycle);
                    be_ticked = true;
                } else {
                    core.backend->accountSkippedCycles(1);
                }
                if (heap.get(feSlot(i)) <= cycle || core.poked ||
                    core.decode_queue->size() < decode_before ||
                    !core.memory->ifetchCompleted().empty()) {
                    core.frontend->tick(cycle);
                    fe_ticked = true;
                } else {
                    core.frontend->accountSkippedCycles(1);
                }
                core.poked = false;
                if (mem_ticked || pre_ticked || be_ticked || fe_ticked)
                    heap.update(memSlot(i),
                                core.memory->nextEventCycle(cycle));
                if (be_ticked || fe_ticked)
                    heap.update(beSlot(i),
                                core.backend->nextEventCycle(cycle));
                if (fe_ticked)
                    heap.update(feSlot(i),
                                core.frontend->nextEventCycle(cycle));
            }
            // Core memory ticks can push into the shared LLC (bypass or
            // port queue), so the shared claim refreshes whenever the
            // shared side or any private slice ticked.
            if (shared_ticked || any_core_mem_ticked)
                heap.update(0, controller_->nextEventCycle(cycle));
        }
        if (onCycleEnd)
            onCycleEnd(cycle);

        std::uint64_t retired_sum = 0;
        for (const auto &cp : cores_)
            retired_sum += cp->backend->retired();
        if (retired_sum != last_retired_sum) {
            last_retired_sum = retired_sum;
            last_progress = cycle;
        } else if (cycle - last_progress > kDeadlockThreshold) {
            panic("multi-core deadlock: no retirement progress for " +
                  std::to_string(cycle - last_progress) +
                  " cycles at cycle " + std::to_string(cycle) +
                  " (cores " + std::to_string(n) + ", config '" +
                  config_.label + "', retired " +
                  std::to_string(retired_sum) + ")");
        }
        ++cycle;

        for (std::size_t i = 0; i < n; ++i) {
            Core &core = *cores_[i];
            if (core.finished)
                continue;
            if (!core.warm && core.backend->retired() >= core.warmup) {
                // End of this core's warmup: zero its private counters.
                // The shared LLC/DRAM/arbiter counters reset once, when
                // the *last* core warms up — at cores=1 that is the
                // same moment the single-core loop resets them.
                core.warm = true;
                core.warmup_cycles = cycle;
                core.frontend->resetStats();
                core.backend->resetStats();
                core.memory->l1i().resetStats();
                core.memory->l1d().resetStats();
                core.memory->l2().resetStats();
                for (auto &pf : core.memory->iprefetchers())
                    pf->resetStats();
                bool all_warm = true;
                for (const auto &other : cores_)
                    all_warm = all_warm && other->warm;
                if (all_warm)
                    controller_->resetStats();
            }
            if (core.backend->retired() >= core.total) {
                core.finished = true;
                core.done_cycle = cycle;
                --running;
                heap.update(memSlot(i), kNoCycle);
                heap.update(beSlot(i), kNoCycle);
                heap.update(feSlot(i), kNoCycle);
            }
        }

        if (!fast_forward || running == 0)
            continue;

        // Exact-result fast-forward, multi-component edition: the heap
        // minimum is the earliest cycle any component can act; every
        // cycle before it is a no-op for every component, so account
        // the per-cycle counters in bulk and jump the clock. Capped at
        // the deadlock horizon exactly like the reference loop.
        Cycle next = heap.minCycle();
        for (const auto &cp : cores_) {
            if (!cp->finished && cp->preloader)
                next = std::min(next,
                                cp->preloader->nextEventCycle(cycle - 1));
        }
        if (next <= cycle)
            continue;
        const Cycle horizon = last_progress + kDeadlockThreshold + 1;
        next = std::min(next, horizon);
        controller_->accountSkippedCycles(next - cycle);
        for (auto &cp : cores_) {
            if (cp->finished)
                continue;
            cp->frontend->accountSkippedCycles(next - cycle);
            cp->backend->accountSkippedCycles(next - cycle);
        }
        cycle = next;
    }

    if (n == 1)
        return collectCore(*cores_[0]);

    SimResult agg;
    agg.config_label = config_.label + "-c" + std::to_string(n);
    agg.core_results.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Core &core = *cores_[i];
        if (i > 0)
            agg.workload += '+';
        agg.workload += core.trace->name();
        agg.core_results.push_back(collectCore(core));
        const SimResult &r = agg.core_results.back();
        agg.instructions += r.instructions;
        agg.effective_instructions += r.effective_instructions;
        agg.cycles = std::max(agg.cycles, r.cycles);
        mergeInto(agg.frontend, r.frontend);
        mergeInto(agg.backend, r.backend);
        mergeInto(agg.branch, r.branch);
        mergeInto(agg.btb, r.btb);
        mergeInto(agg.l1i, r.l1i);
        mergeInto(agg.l1d, r.l1d);
        mergeInto(agg.l2, r.l2);
        mergeByName(agg.hwpf, r.hwpf);
    }
    // The per-core llc fields all duplicate the shared LLC; summing
    // them would count it n times, so the aggregate takes it verbatim.
    agg.llc = controller_->llc().stats();

    agg.shared_mem.llc = controller_->llc().stats();
    agg.shared_mem.dram = controller_->dram().stats();
    agg.shared_mem.llc_core_hits = controller_->llcCoreHits();
    agg.shared_mem.llc_core_misses = controller_->llcCoreMisses();
    agg.shared_mem.port_grants.reserve(n);
    agg.shared_mem.port_queued.reserve(n);
    for (const PortStats &ps : controller_->portStats()) {
        agg.shared_mem.port_grants.push_back(ps.grants);
        agg.shared_mem.port_queued.push_back(ps.queued);
    }
    agg.shared_mem.dram_queue_depth = controller_->dramQueueDepth();
    return agg;
}

SimResult
MultiCoreSimulator::collectCore(const Core &core) const
{
    SimResult result;
    result.workload = core.trace->name();
    result.config_label = config_.label;
    result.instructions = core.backend->stats().retired;
    result.effective_instructions =
        result.instructions - core.backend->stats().retired_sw_prefetches;
    result.cycles = core.done_cycle - core.warmup_cycles;
    result.frontend = core.frontend->stats();
    result.backend = core.backend->stats();
    result.branch = core.frontend->branchUnit().stats();
    result.btb = core.frontend->branchUnit().btb().stats();
    result.l1i = core.memory->l1i().stats();
    result.l1d = core.memory->l1d().stats();
    result.l2 = core.memory->l2().stats();
    result.llc = controller_->llc().stats();
    for (const auto &pf : core.memory->iprefetchers())
        result.hwpf.push_back(pf->counters());
    result.scenario_timeline = core.frontend->scenarioTimeline();
    return result;
}

} // namespace sipre
