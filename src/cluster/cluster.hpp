/**
 * @file
 * The static-membership peer tier: N sipre_served daemons forming one
 * logical simulation service. Every node knows the full member list;
 * canonical request keys are rendezvous-hashed (util/rendezvous.hpp)
 * to an owner node, and a node that is not the owner proxies the
 * request to it over the existing HTTP + retry stack via the internal
 * POST /cluster/simulate endpoint. A failure detector probes every peer's
 * /readyz on an interval with consecutive-failure thresholds; keys
 * owned by a down node re-hash to the next-ranked live peer — an
 * ordering every node computes identically, so retries land on the
 * same survivor and the owner's coalescer/LRU deduplicates them.
 * When every remote candidate fails, resolve() returns nullptr and
 * the engine runs the simulation locally: node loss costs latency,
 * never a lost or double-counted shard.
 */
#ifndef SIPRE_CLUSTER_CLUSTER_HPP
#define SIPRE_CLUSTER_CLUSTER_HPP

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/backend.hpp"
#include "service/client.hpp"
#include "service/engine.hpp"
#include "service/http.hpp"
#include "util/statistics.hpp"

namespace sipre::cluster
{

/**
 * Proxy retry policy tuned for intra-cluster hops: snappier backoff
 * and a hard wall-clock budget per candidate, so a wedged peer stalls
 * a shard for seconds, not the client-facing 30 s default.
 */
service::RetryPolicy defaultProxyPolicy();

/** Membership and failure-detector knobs. */
struct ClusterOptions
{
    /**
     * The full member list, "host:port" each, self included (it is
     * filtered out of the remote set). Every node must spell every
     * member identically — the strings are hashed for ownership.
     */
    std::vector<std::string> peers;

    /** This node's own "host:port" as the other members spell it. */
    std::string self;

    std::uint64_t probe_interval_ms = 500; ///< failure-detector period
    unsigned probe_timeout_ms = 2000;      ///< per-probe deadline
    unsigned down_after = 3; ///< consecutive failures before "down"
    unsigned up_after = 2;   ///< consecutive successes before "up"

    /** Policy for /cluster/simulate proxy hops. */
    service::RetryPolicy proxy_policy = defaultProxyPolicy();
};

/** One remote peer as the failure detector sees it. */
struct PeerState
{
    std::string node; ///< "host:port"
    bool up = true;   ///< optimistic until proven otherwise
    std::uint64_t probes_ok = 0;
    std::uint64_t probes_failed = 0;
    std::uint64_t transitions = 0; ///< up<->down flips
    std::string last_error;        ///< last failed probe's reason
};

/** Point-in-time snapshot for /cluster/status, /metrics, and tests. */
struct ClusterStats
{
    std::size_t members = 0;  ///< full member count (self included)
    std::size_t peers_up = 0; ///< remote peers currently considered up
    std::uint64_t proxied = 0;          ///< requests resolved remotely
    std::uint64_t proxy_failures = 0;   ///< failed per-candidate hops
    std::uint64_t failovers = 0;        ///< requests past their owner
    std::uint64_t remote_simulates = 0; ///< /cluster/simulate served
    std::uint64_t probes_ok = 0;
    std::uint64_t probes_failed = 0;
    std::vector<PeerState> peer_states;

    /// Proxy hop latency (successful resolutions).
    LatencySummary::Snapshot proxy_latency;
};

/** Parse "host:port,host:port,..." into a peer list. */
bool parsePeerList(const std::string &csv,
                   std::vector<std::string> &out, std::string *error);

/** Split "host:port" (numeric port). False on a malformed node name. */
bool splitHostPort(const std::string &node, std::string &host,
                   std::uint16_t &port);

/** See file comment. Thread-safe. */
class ClusterTier : public service::ResultBackend
{
  public:
    /**
     * Binds to `engine` (not owned). The member list is deduplicated
     * and self is added if absent; the caller still must install the
     * tier on the engine (engine.setResultBackend) and register
     * handle()/metricsText()/readinessReason() on the server.
     */
    ClusterTier(service::SimulationEngine &engine,
                const ClusterOptions &options);
    ~ClusterTier() override;

    ClusterTier(const ClusterTier &) = delete;
    ClusterTier &operator=(const ClusterTier &) = delete;

    /** Launch the failure-detector thread. */
    void start();

    /** Stop the failure detector. Idempotent. */
    void shutdown();

    // ResultBackend: the engine consults these after its cache tiers.
    bool localExecution(const std::string &key) override;
    std::shared_ptr<const SimResult>
    resolve(const service::SimRequest &request, const std::string &key,
            std::string *error) override;

    /**
     * Route the /cluster/ endpoints: POST /cluster/simulate (internal
     * peer-to-peer execution; the response body is the lossless
     * campaign text serialization of the SimResult, with an
     * X-Sipre-Cached header) and GET /cluster/status (membership and
     * counters as JSON). nullopt for anything else.
     */
    std::optional<service::http::Response>
    handle(const service::http::Request &request);

    /**
     * Readiness-probe hook for ServiceServer::setReadinessProbe:
     * "peer-degraded" while any peer is marked down, nullopt when the
     * whole cluster is reachable. A degraded node keeps serving — the
     * reason string lets load drivers distinguish it from "draining".
     */
    std::optional<std::string> readinessReason() const;

    /** The sipre_cluster_* metrics family (Prometheus-style text). */
    std::string metricsText() const;

    ClusterStats stats() const;

    /**
     * The node that should execute `key` right now: the best-ranked
     * member the failure detector considers live (self is always
     * live). Every node computes the same answer from the same peer
     * states — this is the re-hash that migrates a dead node's keys.
     */
    std::string ownerFor(const std::string &key) const;

    /** This node's identity ("host:port"). */
    const std::string &self() const { return self_; }

    /** The deduplicated full member list. */
    const std::vector<std::string> &members() const { return members_; }

  private:
    struct Peer
    {
        PeerState state;
        std::string host;
        std::uint16_t port = 0;
        unsigned consecutive_ok = 0;
        unsigned consecutive_fail = 0;
    };

    void probeLoop();
    void probeAllOnce();
    bool isUpLocked(const std::string &node) const;
    std::shared_ptr<const SimResult>
    proxyTo(Peer &peer, const service::SimRequest &request,
            std::string *error);

    service::SimulationEngine &engine_;
    ClusterOptions options_;
    std::string self_;
    std::vector<std::string> members_; ///< sorted, unique, incl. self

    mutable std::mutex mutex_;
    std::vector<Peer> peers_; ///< remote members only

    // Counters (guarded by mutex_).
    std::uint64_t proxied_ = 0;
    std::uint64_t proxy_failures_ = 0;
    std::uint64_t failovers_ = 0;
    std::uint64_t remote_simulates_ = 0;
    std::uint64_t probes_ok_ = 0;
    std::uint64_t probes_failed_ = 0;
    LatencySummary proxy_latency_;

    std::mutex probe_mutex_;
    std::condition_variable probe_cv_;
    bool stopping_ = false;
    std::thread probe_thread_;
    bool started_ = false;
};

} // namespace sipre::cluster

#endif // SIPRE_CLUSTER_CLUSTER_HPP
