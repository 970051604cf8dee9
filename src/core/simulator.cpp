#include "core/simulator.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>

#include "hwpf/builder.hpp"
#include "trace_obs/recorder.hpp"
#include "util/logging.hpp"

namespace sipre
{

using trace_obs::BusyComponent;
using trace_obs::BusyScope;

namespace
{
/** Decode-queue capacity between fetch and dispatch. */
constexpr std::size_t kDecodeQueueSize = 64;

/** Cycles without retirement progress before declaring a deadlock. */
constexpr Cycle kDeadlockThreshold = 1'000'000;
} // namespace

Simulator::Simulator(const SimConfig &config,
                     std::vector<const Trace *> traces,
                     const MemoryControllerConfig &controller)
    : config_(config)
{
    SIPRE_ASSERT(!traces.empty() && traces.size() <= kMaxCores,
                 "a simulator runs 1 to kMaxCores traces");
    const auto n = static_cast<std::uint32_t>(traces.size());
    controller_ =
        std::make_unique<MemoryController>(config_.memory, controller, n);

    cores_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        auto core = std::make_unique<Core>();
        core->trace = traces[i];
        core->memory = std::make_unique<MemoryHierarchy>(
            config_.memory, controller_->port(i), &controller_->llc(),
            &controller_->dram(), static_cast<std::uint8_t>(i));
        core->decode_queue = std::make_unique<DecodeQueue>(kDecodeQueueSize);
        core->frontend = std::make_unique<DecoupledFrontEnd>(
            config_.frontend, *traces[i], *core->memory,
            *core->decode_queue);
        core->backend = std::make_unique<Backend>(
            config_.backend, *traces[i], *core->memory, *core->decode_queue);

        // The hwpf-managed prefetcher kinds need the front-end (FTQ
        // walk, iTLB), so the hierarchy factory left the slot empty for
        // them and they are assembled and wired here.
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

        // The poke flag tells the fast-forward loop that the back-end
        // mutated front-end state mid-cycle (stall resume, PFC), so the
        // front-end must tick this cycle even if its cached claim says
        // it has nothing to do.
        Core *cp = core.get();
        cp->backend->onBranchDecoded = [cp](std::uint64_t index, Cycle now) {
            cp->poked = true;
            cp->frontend->onBranchDecoded(index, now);
        };
        cp->backend->onBranchExecuted = [cp](std::uint64_t index,
                                             Cycle now) {
            cp->poked = true;
            cp->frontend->onBranchExecuted(index, now);
        };
        cores_.push_back(std::move(core));
    }
}

void
Simulator::setSwPrefetchTriggers(std::size_t core,
                                 const SwPrefetchTriggers *triggers)
{
    cores_[core]->frontend->setSwPrefetchTriggers(triggers);
}

void
Simulator::attachMetadataPreloader(
    std::size_t core, const MetadataPreloadConfig &config,
    std::unordered_map<Addr, std::vector<Addr>> metadata)
{
    Core *cp = cores_[core].get();
    cp->preloader =
        std::make_unique<MetadataPreloader>(config, std::move(metadata));
    // Chain onto any existing L1-I access hook (e.g. a HW prefetcher).
    auto previous = cp->memory->l1i().onAccess;
    cp->memory->l1i().onAccess = [this, cp, previous](
                                     Addr line, AccessType type, bool hit) {
        if (previous)
            previous(line, type, hit);
        if (type == AccessType::kIFetch)
            cp->preloader->onL1iAccess(line, current_cycle_);
    };
}

void
Simulator::setL1iMissHook(std::function<void(Addr)> hook)
{
    memory().l1i().onDemandMiss =
        [hook = std::move(hook)](Addr line, AccessType type) {
            if (type == AccessType::kIFetch)
                hook(line);
        };
}

void
Simulator::enableScenarioTimeline(std::uint32_t window)
{
    for (auto &core : cores_)
        core->frontend->enableScenarioTimeline(window);
}

void
Simulator::enableBusyProfile()
{
    controller_->setBusyProfile(&shared_busy_);
    for (auto &core : cores_) {
        core->profile = &core->busy;
        core->memory->setBusyProfile(&core->busy);
    }
}

Cycle
Simulator::nextEventCycle(Cycle now) const
{
    // Short-circuit: once any component reports the very next cycle,
    // no earlier answer is possible, so skip the remaining (and more
    // expensive) scans. Ordered cheapest first.
    Cycle next = controller_->nextEventCycle(now);
    for (const auto &cp : cores_) {
        if (next <= now + 1)
            return next;
        if (cp->finished)
            continue;
        next = std::min(next, cp->memory->nextEventCycle(now));
        if (cp->preloader)
            next = std::min(next, cp->preloader->nextEventCycle(now));
        if (next <= now + 1)
            return next;
        next = std::min(next, cp->backend->nextEventCycle(now));
        if (next <= now + 1)
            return next;
        next = std::min(next, cp->frontend->nextEventCycle(now));
    }
    return next;
}

SimResult
Simulator::run()
{
    const std::size_t n = cores_.size();
    trace_obs::Span span("sim.run", "core");
    span.arg("workload", workloadName());
    span.arg("config", config_.label);
    span.arg("cores", std::to_string(n));

    const bool fast_forward =
        config_.fast_forward && std::getenv("SIPRE_NO_SKIP") == nullptr;

    // Cached claims (absolute cycle of the earliest possible activity):
    // slot 0 is the shared memory system (LLC + DRAM + arbiter), then
    // each core's memory slice, back-end and front-end. A component
    // ticks only when its claim is due or a cross-component input
    // arrived; its claim is recomputed only after it (or a producer
    // feeding it) actually ticked. All start at 0 so every component
    // ticks at cycle 0. The preloaders' claims are two queue checks fed
    // by the L1-I access hook (fires inside the memory tick), so they
    // are evaluated fresh each cycle instead of being cached.
    std::array<Cycle, 1 + 3 * kMaxCores> claims{};
    const std::size_t slots = 1 + 3 * n;

    Cycle cycle = 0;
    std::uint64_t last_retired = 0;
    Cycle last_progress = 0;
    std::size_t running = n;

    while (running > 0) {
        current_cycle_ = cycle;
        if (!fast_forward) {
            controller_->tick(cycle);
            for (auto &cp : cores_) {
                Core &core = *cp;
                if (core.finished)
                    continue;
                core.memory->tick(cycle);
                if (core.preloader) {
                    BusyScope scope(core.profile, BusyComponent::kPreloader);
                    core.preloader->tick(cycle, *core.memory);
                }
                {
                    BusyScope scope(core.profile, BusyComponent::kBackend);
                    core.backend->tick(cycle);
                }
                {
                    BusyScope scope(core.profile, BusyComponent::kFrontend);
                    core.frontend->tick(cycle);
                }
            }
        } else {
            const bool shared_ticked = claims[0] <= cycle;
            if (shared_ticked)
                controller_->tick(cycle);
            else
                controller_->accountSkippedCycles(1);
            bool any_mem_ticked = false;
            for (std::size_t i = 0; i < n; ++i) {
                Core &core = *cores_[i];
                if (core.finished)
                    continue;
                Cycle &c_mem = claims[1 + 3 * i];
                Cycle &c_be = claims[2 + 3 * i];
                Cycle &c_fe = claims[3 + 3 * i];
                bool mem_ticked = false;
                bool pre_ticked = false;
                bool be_ticked = false;
                bool fe_ticked = false;
                // A shared tick can deliver fills synchronously into
                // this core's L2/L1s (and push writebacks), so the
                // private slice must tick whenever the shared side did.
                if (c_mem <= cycle || shared_ticked) {
                    core.memory->tick(cycle);
                    mem_ticked = true;
                    any_mem_ticked = true;
                }
                if (core.preloader &&
                    (cycle == 0 ||
                     core.preloader->nextEventCycle(cycle - 1) <= cycle)) {
                    BusyScope scope(core.profile, BusyComponent::kPreloader);
                    core.preloader->tick(cycle, *core.memory);
                    pre_ticked = true;
                }
                // Completion ports must drain in the cycle the fill
                // arrived, exactly as in the reference order.
                const std::size_t decode_before = core.decode_queue->size();
                if (c_be <= cycle || !core.memory->dataCompleted().empty()) {
                    BusyScope scope(core.profile, BusyComponent::kBackend);
                    core.backend->tick(cycle);
                    be_ticked = true;
                } else {
                    core.backend->accountSkippedCycles(1);
                }
                // A dispatch pop can unblock delivery into a previously
                // full decode queue within the same cycle.
                if (c_fe <= cycle || core.poked ||
                    core.decode_queue->size() < decode_before ||
                    !core.memory->ifetchCompleted().empty()) {
                    BusyScope scope(core.profile, BusyComponent::kFrontend);
                    core.frontend->tick(cycle);
                    fe_ticked = true;
                } else {
                    core.frontend->accountSkippedCycles(1);
                }
                core.poked = false;
                // Refresh claims for components whose state (or whose
                // inputs) changed this cycle. Core ticks can enqueue
                // into the memory system; only the front-end feeds the
                // decode queue; the back-end only pokes the front-end
                // through the branch callbacks handled above.
                if (mem_ticked || pre_ticked || be_ticked || fe_ticked)
                    c_mem = core.memory->nextEventCycle(cycle);
                if (be_ticked || fe_ticked)
                    c_be = core.backend->nextEventCycle(cycle);
                if (fe_ticked)
                    c_fe = core.frontend->nextEventCycle(cycle);
            }
            // Core memory ticks can push into the shared LLC (bypass or
            // port queue), so the shared claim refreshes whenever the
            // shared side or any private slice ticked.
            if (shared_ticked || any_mem_ticked)
                claims[0] = controller_->nextEventCycle(cycle);
        }
        if (onCycleEnd)
            onCycleEnd(cycle);

        std::uint64_t retired = 0;
        for (const auto &cp : cores_)
            retired += cp->backend->retired();
        if (retired != last_retired) {
            last_retired = retired;
            last_progress = cycle;
        } else if (cycle - last_progress > kDeadlockThreshold) {
            std::uint64_t total = 0;
            for (const auto &cp : cores_)
                total += cp->total;
            panic("simulator deadlock: no retirement progress for " +
                  std::to_string(cycle - last_progress) +
                  " cycles at cycle " + std::to_string(cycle) +
                  " (workload '" + workloadName() + "', config '" +
                  config_.label + "', retired " + std::to_string(retired) +
                  "/" + std::to_string(total) + ")");
        }
        ++cycle;

        for (std::size_t i = 0; i < n; ++i) {
            Core &core = *cores_[i];
            if (core.finished)
                continue;
            if (!core.warm && core.backend->retired() >= core.warmup) {
                // End of this core's warmup: zero its event counters but
                // keep all microarchitectural state (caches, BTB,
                // predictor tables). The shared LLC/DRAM/arbiter
                // counters reset once, when the last core warms up.
                core.warm = true;
                core.warmup_cycles = cycle;
                core.frontend->resetStats();
                core.backend->resetStats();
                core.memory->l1i().resetStats();
                core.memory->l1d().resetStats();
                core.memory->l2().resetStats();
                for (auto &pf : core.memory->iprefetchers())
                    pf->resetStats();
                if (std::all_of(cores_.begin(), cores_.end(),
                                [](const auto &c) { return c->warm; }))
                    controller_->resetStats();
            }
            if (core.backend->retired() >= core.total) {
                core.finished = true;
                core.done_cycle = cycle;
                --running;
                std::fill_n(&claims[1 + 3 * i], 3, kNoCycle);
            }
        }

        if (!fast_forward || running == 0)
            continue;

        // Exact-result fast-forward: every cycle in [cycle, next) would
        // be a pure no-op tick — each component reported it cannot act
        // before `next` — so account the per-cycle counters in bulk and
        // jump the clock. Capped at the deadlock horizon so a genuinely
        // wedged machine still reaches the panic above at the same
        // cycle the reference loop would.
        Cycle next = *std::min_element(claims.begin(), claims.begin() + slots);
        for (const auto &cp : cores_) {
            if (!cp->finished && cp->preloader)
                next = std::min(next, cp->preloader->nextEventCycle(cycle - 1));
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
    agg.workload = workloadName();
    agg.config_label = config_.label + "-c" + std::to_string(n);
    agg.core_results.reserve(n);
    for (const auto &cp : cores_) {
        agg.core_results.push_back(collectCore(*cp));
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
Simulator::collectCore(const Core &core) const
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

std::string
Simulator::workloadName() const
{
    std::string name;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        if (i > 0)
            name += '+';
        name += cores_[i]->trace->name();
    }
    return name;
}

} // namespace sipre
