/**
 * @file
 * Cluster-level request router. Arrivals are routed one at a time on
 * the shared virtual arrival timeline: the cluster first steps every
 * replica, on its one thread, up to the arrival instant, then asks the
 * router for a replica, so routing is deterministic. For the static
 * policies the router keeps its own load model per replica: every
 * routed request occupies its replica until an estimated finish time
 * and holds an estimated KV commitment, both supplied by the caller
 * (the cluster derives them from each replica's kernel model and
 * MemoryBackend budget). routeLive instead scores each replica's
 * actual state sampled at the arrival instant.
 */

#ifndef VATTN_SERVING_ROUTER_HH
#define VATTN_SERVING_ROUTER_HH

#include <functional>
#include <queue>
#include <vector>

#include "common/types.hh"

namespace vattn::serving
{

/** How the cluster spreads arrivals across replicas. */
enum class RoutingPolicy
{
    kRoundRobin,        ///< cycle through replicas in index order
    kJoinShortestQueue, ///< fewest in-flight requests wins
    kLeastKvPressure,   ///< lowest KV commitment / budget ratio wins
};

const char *toString(RoutingPolicy policy);

/** All policies, in a stable sweep order (handy for benches/tests). */
constexpr RoutingPolicy kAllRoutingPolicies[] = {
    RoutingPolicy::kRoundRobin,
    RoutingPolicy::kJoinShortestQueue,
    RoutingPolicy::kLeastKvPressure,
};

/** Per-replica load-balancing decision maker. */
class Router
{
  public:
    /** Static description of one replica as the router sees it. */
    struct Replica
    {
        /** Per-worker physical KV budget (MemoryBackend::budgetBytes). */
        u64 kv_budget_bytes = 0;
    };

    /** One arrival's footprint on a specific replica; heterogeneous
     *  replicas give the same request different estimates. */
    struct Estimate
    {
        TimeNs service_ns = 0; ///< queue occupancy until est. finish
        u64 kv_bytes = 0;      ///< est. per-worker KV commitment
    };

    Router(RoutingPolicy policy, std::vector<Replica> replicas);

    /**
     * Route one arrival at @p arrival_ns. The pick uses only the live
     * load model; @p estimate is then invoked once, for the chosen
     * replica, and the returned footprint is absorbed so later
     * decisions observe this request (heterogeneous replicas give the
     * same request different estimates, so the callback takes the
     * replica index). Arrivals must be routed in non-decreasing time
     * order.
     */
    int route(TimeNs arrival_ns,
              const std::function<Estimate(int replica)> &estimate);

    // ---- Live routing (the online serving path) ----------------------
    //
    // The static policies above model load from their own estimates and
    // never look at the replicas. The live mode instead samples each
    // replica's actual state at dispatch time — queue depth, KV
    // pressure, communication share, in-flight prefill debt — so
    // routing reacts to skew the estimate model cannot see (bursty
    // tenants, heterogeneous replicas, migration).

    /** One replica's live state, sampled at dispatch time. */
    struct LiveLoad
    {
        i64 queued = 0;  ///< waiting + swapped-out requests
        i64 running = 0; ///< running batch size
        /** Prompt tokens admitted but not yet prefilled (the work a
         *  new arrival must wait out before its own prefill). */
        i64 prefill_debt_tokens = 0;
        double kv_pressure = 0.0; ///< bytesInUse / budget, [0, 1]
        /** Collective-communication share of recent iteration time
         *  (high share = TP-bound replica, slow to absorb load). */
        double comm_share = 0.0;
        /** Backend cannot admit a typical request right now. */
        bool kv_saturated = false;
    };

    /** Composite badness of one live snapshot (lower is better).
     *  Exposed so tests can pin the ordering. */
    static double liveScore(const LiveLoad &load);

    /**
     * Route one arrival using live replica state: @p load is sampled
     * once per replica and the least-loaded replica wins. The order is
     * lexicographic — an unsaturated replica always beats a saturated
     * one, then lower liveScore, then lower index — so the decision is
     * a pure function of the snapshots (deterministic across runs and
     * execution modes).
     */
    int routeLive(TimeNs arrival_ns,
                  const std::function<LiveLoad(int replica)> &load);

    // ---- Introspection (load model as of the last routed arrival) ----

    int numReplicas() const { return static_cast<int>(states_.size()); }
    RoutingPolicy policy() const { return policy_; }
    /** In-flight (estimated unfinished) requests on @p replica. */
    i64 outstanding(int replica) const;
    /** Estimated committed KV bytes on @p replica. */
    u64 kvBytes(int replica) const;
    /** kvBytes / budget for @p replica, in [0, inf). */
    double kvPressure(int replica) const;

  private:
    struct InFlight
    {
        TimeNs est_finish_ns = 0;
        u64 est_kv_bytes = 0;
    };
    struct ByFinish
    {
        bool
        operator()(const InFlight &a, const InFlight &b) const
        {
            return a.est_finish_ns > b.est_finish_ns; // min-heap
        }
    };
    struct State
    {
        Replica info;
        std::priority_queue<InFlight, std::vector<InFlight>, ByFinish>
            in_flight;
        u64 kv_bytes = 0;
    };

    /** Retire every request whose estimated finish is <= @p now. */
    void drainFinished(TimeNs now);
    int pick() const;

    RoutingPolicy policy_;
    std::vector<State> states_;
    int next_round_robin_ = 0;
    TimeNs last_arrival_ns_ = 0;
};

} // namespace vattn::serving

#endif // VATTN_SERVING_ROUTER_HH
