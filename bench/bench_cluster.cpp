/**
 * @file
 * Cluster scaling benchmark: builds K ∈ {1,2,3} in-process cluster
 * nodes (engine + HTTP server + peer tier, wired exactly like
 * sipre_served), fires a fixed stream of all-distinct requests at the
 * member list round-robin, and reports requests/s per cluster size
 * plus the 2-node and 3-node scaling ratios.
 *
 * The workload is made latency-bound, not CPU-bound: a process-global
 * `engine:delay=<ms>` fault stretches every simulation to a fixed wall
 * time, so a single-CPU CI box still shows the real effect of adding
 * nodes — K nodes hold K× as many simulations in flight. Every key is
 * distinct (monotonic instruction counts), so no cache tier can serve
 * a request and every data point is a full remote-or-local execution.
 *
 * Environment knobs: SIPRE_CLUSTER_THREADS (client threads, default
 * 18 — enough to keep even the 3-node round server-limited),
 * SIPRE_CLUSTER_REQUESTS (per thread per cluster size, default 24),
 * SIPRE_CLUSTER_WORKERS (engine workers per node, default 4),
 * SIPRE_CLUSTER_DELAY_MS (injected per-simulation latency, default
 * 100 — long enough that the per-hop proxy overhead doesn't mask the
 * capacity gain on a single-CPU box).
 */
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cluster/cluster.hpp"
#include "core/json_io.hpp"
#include "service/engine.hpp"
#include "service/http.hpp"
#include "service/server.hpp"
#include "util/fault.hpp"

using namespace sipre;
using namespace sipre::service;

namespace
{

std::uint64_t
envUint(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    return value != nullptr ? std::strtoull(value, nullptr, 10)
                            : fallback;
}

/** One cluster member, wired like the daemon wires itself. */
struct Node
{
    std::unique_ptr<SimulationEngine> engine;
    std::unique_ptr<ServiceServer> server;
    std::unique_ptr<cluster::ClusterTier> tier;
    std::string id;

    explicit Node(unsigned workers, unsigned client_threads)
    {
        EngineOptions engine_options;
        engine_options.workers = workers;
        engine_options.queue_capacity = 256;
        engine = std::make_unique<SimulationEngine>(engine_options);
        ServerOptions server_options;
        // Above the worst-case concurrent inbound: every client
        // thread's pinned keep-alive connection plus every peer's
        // transient proxy hops at once. A proxying node holds a
        // connection thread for the whole remote hop, so an
        // undersized pool can reach a state where every thread on
        // every node is blocked proxying and none is free to serve
        // the incoming /cluster/simulate calls — a distributed
        // thread-pool deadlock that only the 10 s proxy timeout
        // unwinds. Idle threads just wait on a condvar.
        server_options.connection_threads = client_threads + 24;
        server = std::make_unique<ServiceServer>(*engine,
                                                 server_options);
        // Handlers must be registered before start(), but the tier
        // needs the ephemeral port — forward through the pointer.
        server->addHandler(
            [this](const http::Request &request)
                -> std::optional<http::Response> {
                if (tier == nullptr)
                    return std::nullopt;
                return tier->handle(request);
            });
        std::string error;
        if (!server->start(&error)) {
            std::cerr << "bench_cluster: " << error << "\n";
            std::exit(1);
        }
        id = "127.0.0.1:" + std::to_string(server->port());
    }

    void
    join(const std::vector<std::string> &members)
    {
        cluster::ClusterOptions options;
        options.self = id;
        options.peers = members;
        tier = std::make_unique<cluster::ClusterTier>(*engine, options);
        engine->setResultBackend(tier.get());
        tier->start();
    }

    ~Node()
    {
        if (tier)
            tier->shutdown();
        server->shutdown();
    }
};

struct RoundResult
{
    std::size_t nodes = 0;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t sim_runs = 0;
    std::uint64_t proxied = 0;
    std::uint64_t proxy_failures = 0;
    double proxy_p50_ms = 0.0;
    double elapsed_s = 0.0;
    double rps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
};

RoundResult
runRound(std::size_t cluster_size, unsigned threads,
         std::uint64_t per_thread, unsigned workers)
{
    std::vector<std::unique_ptr<Node>> nodes;
    std::vector<std::string> members;
    for (std::size_t n = 0; n < cluster_size; ++n) {
        nodes.push_back(std::make_unique<Node>(workers, threads));
        members.push_back(nodes.back()->id);
    }
    for (auto &node : nodes)
        node->join(members);

    std::mutex merge_mutex;
    std::vector<double> latencies_ms;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            std::vector<double> local_ms;
            std::uint64_t local_ok = 0;
            std::uint64_t local_errors = 0;
            // One keep-alive connection per endpoint, lazily dialed.
            std::vector<int> fds(nodes.size(), -1);
            for (std::uint64_t n = 0; n < per_thread; ++n) {
                const std::size_t e = (t + n) % nodes.size();
                std::string error;
                if (fds[e] < 0)
                    fds[e] = http::dialTcp(
                        "127.0.0.1", nodes[e]->server->port(), &error);
                if (fds[e] < 0) {
                    ++local_errors;
                    continue;
                }
                // A unique instruction count per request: every key
                // in the round is distinct, so nothing is
                // cache-served. Rounds reuse the same key space —
                // every engine is built fresh per round, and an
                // identical workload is what makes the rps of
                // different cluster sizes comparable.
                const std::uint64_t instructions =
                    1'000 + (t * per_thread + n);
                http::Request request;
                request.method = "POST";
                request.target = "/simulate";
                request.body =
                    "{\"workload\":\"secret_crypto52\","
                    "\"instructions\":" +
                    std::to_string(instructions) + ",\"ftq\":8}";
                const auto r0 = std::chrono::steady_clock::now();
                http::Response response;
                if (!http::roundTrip(fds[e], request, response,
                                     &error)) {
                    ::close(fds[e]);
                    fds[e] = -1;
                    ++local_errors;
                    continue;
                }
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - r0)
                        .count();
                if (response.status == 200) {
                    ++local_ok;
                    local_ms.push_back(ms);
                } else {
                    ++local_errors;
                }
            }
            for (const int fd : fds)
                if (fd >= 0)
                    ::close(fd);
            std::lock_guard<std::mutex> lock(merge_mutex);
            latencies_ms.insert(latencies_ms.end(), local_ms.begin(),
                                local_ms.end());
            ok += local_ok;
            errors += local_errors;
        });
    }
    for (auto &thread : pool)
        thread.join();

    RoundResult result;
    result.nodes = cluster_size;
    result.elapsed_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    result.ok = ok;
    result.errors = errors;
    for (const auto &node : nodes) {
        result.sim_runs += node->engine->stats().sim_runs;
        const cluster::ClusterStats tier_stats = node->tier->stats();
        result.proxied += tier_stats.proxied;
        result.proxy_failures += tier_stats.proxy_failures;
        result.proxy_p50_ms =
            std::max(result.proxy_p50_ms,
                     static_cast<double>(
                         tier_stats.proxy_latency.p50_us) /
                         1000.0);
    }
    result.rps = result.elapsed_s > 0.0
                     ? static_cast<double>(ok) / result.elapsed_s
                     : 0.0;
    std::sort(latencies_ms.begin(), latencies_ms.end());
    auto percentile = [&](double frac) {
        if (latencies_ms.empty())
            return 0.0;
        const std::size_t index = std::min(
            latencies_ms.size() - 1,
            static_cast<std::size_t>(
                frac * static_cast<double>(latencies_ms.size())));
        return latencies_ms[index];
    };
    result.p50_ms = percentile(0.50);
    result.p99_ms = percentile(0.99);
    return result;
}

} // namespace

int
main()
{
    const unsigned threads =
        static_cast<unsigned>(envUint("SIPRE_CLUSTER_THREADS", 18));
    const std::uint64_t per_thread =
        envUint("SIPRE_CLUSTER_REQUESTS", 24);
    const unsigned workers =
        static_cast<unsigned>(envUint("SIPRE_CLUSTER_WORKERS", 4));
    const std::uint64_t delay_ms =
        envUint("SIPRE_CLUSTER_DELAY_MS", 100);

    // Latency-bound workload: every simulation holds a worker for
    // delay_ms of wall time, so throughput is workers/delay per node
    // and adding nodes adds capacity even on one CPU.
    std::string fault_error;
    if (!fault::Injector::global().configure(
            "engine:delay=" + std::to_string(delay_ms) + "ms",
            &fault_error)) {
        std::cerr << "bench_cluster: " << fault_error << "\n";
        return 1;
    }

    std::cerr << "[cluster] " << threads << " client threads x "
              << per_thread << " requests per cluster size, " << workers
              << " workers/node, " << delay_ms << " ms/simulation\n";

    std::vector<RoundResult> rounds;
    for (const std::size_t cluster_size : {1u, 2u, 3u}) {
        rounds.push_back(
            runRound(cluster_size, threads, per_thread, workers));
        std::cerr << "[cluster] " << cluster_size << " node(s): "
                  << rounds.back().ok << " ok, " << rounds.back().rps
                  << " rps\n";
    }
    fault::Injector::global().configure("");

    const double rps1 = rounds[0].rps;
    const double scale2 = rps1 > 0.0 ? rounds[1].rps / rps1 : 0.0;
    const double scale3 = rps1 > 0.0 ? rounds[2].rps / rps1 : 0.0;

    std::ostringstream os;
    os << "{\"bench\":\"cluster\",\"threads\":" << threads
       << ",\"requests_per_size\":" << (per_thread * threads)
       << ",\"workers_per_node\":" << workers
       << ",\"delay_ms\":" << delay_ms << ",\"rounds\":[";
    bool first = true;
    std::uint64_t errors = 0;
    for (const RoundResult &round : rounds) {
        if (!first)
            os << ',';
        first = false;
        errors += round.errors;
        os << "{\"nodes\":" << round.nodes << ",\"ok\":" << round.ok
           << ",\"errors\":" << round.errors
           << ",\"sim_runs\":" << round.sim_runs
           << ",\"proxied\":" << round.proxied
           << ",\"proxy_failures\":" << round.proxy_failures
           << ",\"proxy_p50_ms\":" << jsonDouble(round.proxy_p50_ms)
           << ",\"elapsed_s\":" << jsonDouble(round.elapsed_s)
           << ",\"rps\":" << jsonDouble(round.rps)
           << ",\"p50_ms\":" << jsonDouble(round.p50_ms)
           << ",\"p99_ms\":" << jsonDouble(round.p99_ms) << "}";
    }
    os << "],\"scale_2_nodes\":" << jsonDouble(scale2)
       << ",\"scale_3_nodes\":" << jsonDouble(scale3) << "}";
    std::cout << os.str() << "\n";

    if (scale2 < 1.7)
        std::cerr << "[cluster] WARNING: 2-node scaling " << scale2
                  << "x is below the 1.7x target\n";
    return errors == 0 ? 0 : 1;
}
