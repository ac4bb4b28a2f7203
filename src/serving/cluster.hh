/**
 * @file
 * Multi-replica serving: a ServingCluster owns N independently
 * configured Engine replicas behind a Router. Requests arrive one at a
 * time on the shared virtual timeline (start / submit / shutdown;
 * run() is a wrapper that submits a whole trace): before each arrival
 * is routed, every replica is stepped on one thread up to the arrival
 * instant, so routing and migration see the cluster as it stands at
 * that virtual time. The per-replica RunReports merge — iteration
 * records k-way by timestamp, latency samples in replica order — into
 * one ClusterReport. The whole pipeline is deterministic: the same
 * configuration and submission sequence produce an identical merged
 * report.
 */

#ifndef VATTN_SERVING_CLUSTER_HH
#define VATTN_SERVING_CLUSTER_HH

#include <memory>
#include <mutex>
#include <vector>

#include "common/status.hh"
#include "common/thread_annotations.hh"
#include "serving/engine.hh"
#include "serving/metrics.hh"
#include "serving/router.hh"

namespace vattn::serving
{

/** How a cluster drives its replicas. There is one driver; the enum
 *  remains so reports can name it (ServingCluster::resolvedExecution). */
enum class ClusterExecution : u8
{
    /** Single-threaded event loop: every replica is stepped up to each
     *  arrival instant, then drained at shutdown. No thread creation,
     *  no context switches, at any replica count. */
    kEventLoop,
};

const char *toString(ClusterExecution mode);

/** How the online serving path places each arrival on a replica. */
enum class RoutingMode : u8
{
    /** The configured policy (Config::policy) applied at dispatch
     *  time, fed by the router's own estimate model — it never
     *  observes the replicas. run() routes this way. */
    kStatic,
    /** Router::routeLive over each replica's actual state (queue
     *  depth, KV pressure, comm share, prefill debt) sampled at the
     *  arrival instant. */
    kLive,
};

const char *toString(RoutingMode mode);

/** Online-session knobs (ServingCluster::start). */
struct OnlineOptions
{
    RoutingMode routing = RoutingMode::kStatic;
    /** Rebalance at arrival instants: when one replica is saturated
     *  (or far more loaded) and another is not, one queued-or-swapped
     *  request migrates toward the idle replica (swapped requests
     *  move their KV through the host swap tier). */
    bool migration = false;
    /** Expected session size, a per-replica sample-store reservation
     *  hint (zero is always correct; growth is amortized). */
    std::size_t expected_requests = 0;
};

/** Merged result of one cluster run. */
struct ClusterReport
{
    /** Cross-replica aggregate (counts summed, makespan = max,
     *  percentiles over every request, iterations timestamp-merged). */
    RunReport merged;
    /** Per-replica breakdowns, indexed like the config. */
    std::vector<RunReport> replicas;
    /** Requests routed to each replica (= replicas[i].num_requests). */
    std::vector<i64> assigned;

    // ---- Cross-replica load-imbalance stats -------------------------
    // max/mean ratios: 1.0 is perfectly even, higher is more skewed.

    double request_imbalance = 0; ///< over routed request counts
    double token_imbalance = 0;   ///< over prompt+decode tokens served
    double busy_imbalance = 0;    ///< over per-replica busy (non-idle) time
    /** Jain's fairness index over routed request counts, (0, 1]. */
    double jain_fairness = 1.0;
};

/** N Engine replicas behind a load-balancing router. */
class ServingCluster
{
  public:
    struct Config
    {
        /** One entry per replica; replicas may differ (GPU, TP,
         *  backend, KV budget — "replica skew" scenarios). */
        std::vector<EngineConfig> replicas;
        RoutingPolicy policy = RoutingPolicy::kJoinShortestQueue;
    };

    /** Convenience: @p n identical replicas of @p engine. */
    static Config uniform(const EngineConfig &engine, int n,
                          RoutingPolicy policy);

    explicit ServingCluster(Config config);

    /** Serve a whole trace: an online session with static routing
     *  that submits every request in arrival order (ties in trace
     *  order) and shuts down. Single-shot: the replicas' virtual
     *  clocks are consumed, so construct a fresh cluster per trace (a
     *  second call panics). */
    ClusterReport run(std::vector<Request> trace);

    /** The replica driver (always the event loop; kept so reports can
     *  name it). */
    ClusterExecution resolvedExecution() const
    {
        return ClusterExecution::kEventLoop;
    }

    // ---- Online serving (start / submit / shutdown) ------------------
    //
    // The streaming alternative to run(): requests are submitted one
    // at a time as they arrive (any thread), each dispatched to a
    // replica the moment it is submitted — after every replica has
    // simulated up to the arrival instant, so live routing and
    // migration decisions see the cluster as it actually stands at
    // that virtual time. Deterministic: the same submission sequence
    // produces the same merged report, whichever threads submit it.

    /**
     * Open an online session. Single-shot: a cluster serves one
     * session (or one run(), which opens one) in its lifetime.
     */
    void start(const OnlineOptions &options = {}) EXCLUDES(mutex_);

    /**
     * Submit one arrival. Thread-safe; arrivals must be submitted in
     * non-decreasing arrival_ns order (the shared virtual timeline).
     * Errors — submission before start(), after shutdown(), or out of
     * time order — are reported, not panicked: the submission side is
     * the system's untrusted edge.
     */
    Status submit(Request request) EXCLUDES(mutex_);

    /**
     * Drain every replica, close the session and return the merged
     * report (same shape run() produces, plus the online counters:
     * goodput, SLO-violation breakdown, shed and migration counts).
     */
    ClusterReport shutdown() EXCLUDES(mutex_);

    int numReplicas() const { return static_cast<int>(engines_.size()); }
    Engine &replica(int i) { return *engines_[static_cast<std::size_t>(i)]; }
    const Config &config() const { return config_; }

  private:
    /** This request's footprint on @p replica's load model. */
    Router::Estimate estimateFor(const Request &request,
                                 int replica) const;

    /** Step every replica until its next event is at or past
     *  @p horizon_ns (kNoEventNs drains them completely). Replicas
     *  are independent within the window, so the order they are
     *  stepped in does not matter. */
    void advanceAllTo(TimeNs horizon_ns) REQUIRES(mutex_);
    /** One rebalance step at an arrival instant: migrate at most one
     *  request from the most- to the least-loaded replica when the
     *  gap warrants it (deterministic, pure function of live state). */
    void maybeMigrate() REQUIRES(mutex_);
    /** Merge per-replica reports into report.merged + imbalance stats. */
    static void mergeReports(ClusterReport &report);

    Config config_;
    std::vector<std::unique_ptr<Engine>> engines_;

    /** Guards the whole session: submit() may be called from any
     *  thread and serializes replica pumping behind it. */
    std::mutex mutex_;

    // ---- Session state (all behind mutex_) ---------------------------
    bool online_started_ GUARDED_BY(mutex_) = false;
    bool online_shutdown_ GUARDED_BY(mutex_) = false;
    OnlineOptions online_options_ GUARDED_BY(mutex_);
    std::unique_ptr<Router> online_router_ GUARDED_BY(mutex_);
    TimeNs online_last_arrival_ns_ GUARDED_BY(mutex_) = 0;
    std::vector<i64> online_assigned_ GUARDED_BY(mutex_);
};

} // namespace vattn::serving

#endif // VATTN_SERVING_CLUSTER_HH
