/**
 * @file
 * Deterministic, seedable fault injection for the service stack.
 *
 * The paper's methodological point — conclusions drawn on an optimistic
 * baseline invert under realistic conditions — applies to our own
 * infrastructure too: sipre_served/sipre_jobs must be characterized
 * under hostile clients, failing disks, and crashing processes, not
 * just the happy path. This framework provides named injection points
 * (sites) threaded through the fragile boundaries (socket I/O, fsync /
 * rename persistence, engine and shard execution) that tests and the
 * daemon enable via `--faults` or the SIPRE_FAULTS environment
 * variable.
 *
 * Grammar (comma-separated entries):
 *
 *   SIPRE_FAULTS="recv:err=0.01,write:short=0.05,fsync:fail=after:3,
 *                 engine:delay=50ms,seed=42"
 *
 *   <site>:err=P        each operation fails with probability P
 *   <site>:short=P      each read/write is truncated with probability P
 *   <site>:fail=after:N operations after the first N all fail
 *   <site>:delay=Dms    every operation is delayed by D milliseconds
 *   seed=N              seeds the probability draws (deterministic)
 *
 * Sites: recv, send (alias: write), fsync, rename, engine, shard,
 * connect, peer.
 *
 * With no spec configured the framework is a single relaxed atomic
 * load per hook — near-zero overhead, no locks, no allocation (see
 * bench/bench_hook_overhead).
 */
#ifndef SIPRE_UTIL_FAULT_HPP
#define SIPRE_UTIL_FAULT_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace sipre::fault
{

/** Named injection points. Keep siteName()/parseSite() in sync. */
enum class Site : std::uint8_t {
    kRecv,   ///< socket reads (server connections and client helpers)
    kSend,   ///< socket writes (http::sendAll); alias "write"
    kFsync,  ///< file/directory fsync in the durable-commit path
    kRename, ///< the atomic-publish rename in the durable-commit path
    kEngine, ///< simulation execution inside the engine workers
    kShard,  ///< shard execution in the job manager's executors
    kConnect,///< outbound TCP connects (http::dialTcp)
    kPeer,   ///< per-candidate peer proxying in the cluster tier
};
inline constexpr std::size_t kSiteCount = 8;

const char *siteName(Site site);
bool parseSite(std::string_view token, Site &site);

/** Per-site fault programming, as parsed from the spec. */
struct SiteRule
{
    double err_p = 0.0;            ///< P(operation fails)
    double short_p = 0.0;          ///< P(read/write truncated)
    std::uint64_t fail_after = 0;  ///< >0: ops beyond the Nth fail
    bool fail_after_set = false;
    std::uint64_t delay_ms = 0;    ///< fixed delay per operation

    bool
    active() const
    {
        return err_p > 0.0 || short_p > 0.0 || fail_after_set ||
               delay_ms > 0;
    }
};

/** What a hook should do for the current operation. */
struct Decision
{
    bool fail = false;         ///< make the operation error out
    bool shorten = false;      ///< truncate the read/write
    std::uint64_t delay_ms = 0; ///< sleep this long first

    explicit operator bool() const
    {
        return fail || shorten || delay_ms > 0;
    }
};

/**
 * The process-wide injector. Thread-safe. Disabled (the default) it
 * costs one relaxed atomic load per hook; configured, each decision
 * takes a short critical section so the op counters and the seeded
 * RNG stream stay coherent across threads.
 */
class Injector
{
  public:
    /**
     * The global instance. On first use it self-configures from the
     * SIPRE_FAULTS environment variable (a malformed value warns on
     * stderr and leaves injection disabled).
     */
    static Injector &global();

    /**
     * (Re)program the injector. An empty spec disables injection and
     * clears all rules and counters. Returns false (with `error`, when
     * given) on a malformed spec, leaving the previous configuration
     * in place.
     */
    bool configure(std::string_view spec, std::string *error = nullptr);

    /** Fast path for hooks: no faults configured at all. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Evaluate the rule for `site` against this operation (counting
     * it). Meaningful only when enabled(); prefer fault::at().
     */
    Decision decide(Site site);

    /** Faults injected at `site` so far (any action). */
    std::uint64_t injected(Site site) const;

    /** Faults injected across all sites. */
    std::uint64_t injectedTotal() const;

    /** Operations that consulted `site` (injected or not). */
    std::uint64_t operations(Site site) const;

    /**
     * Prometheus-style text: sipre_faults_injected_total and
     * sipre_fault_ops_total, one labeled series per active site.
     * Empty when injection is disabled and nothing was ever injected.
     */
    std::string metricsText() const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::array<SiteRule, kSiteCount> rules_{};
    std::array<std::uint64_t, kSiteCount> ops_{};
    std::array<std::uint64_t, kSiteCount> injected_{};
    Rng rng_;
};

/**
 * The hook every injection point calls. Compiles to a relaxed atomic
 * load and a branch when no faults are configured.
 */
inline Decision
at(Site site)
{
    Injector &injector = Injector::global();
    if (!injector.enabled())
        return Decision{};
    return injector.decide(site);
}

/** Sleep helper for Decision::delay_ms (no-op on zero). */
void applyDelay(const Decision &decision);

/**
 * Parse a spec into per-site rules + seed without touching the global
 * injector (exposed for tests and tooling diagnostics).
 */
bool parseSpec(std::string_view spec,
               std::array<SiteRule, kSiteCount> &rules,
               std::uint64_t &seed, std::string &error);

} // namespace sipre::fault

#endif // SIPRE_UTIL_FAULT_HPP
