#include "serving/cluster.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace vattn::serving
{

const char *
toString(ClusterExecution mode)
{
    switch (mode) {
      case ClusterExecution::kEventLoop: return "event_loop";
    }
    return "?";
}

const char *
toString(RoutingMode mode)
{
    switch (mode) {
      case RoutingMode::kStatic: return "static";
      case RoutingMode::kLive: return "live";
    }
    return "?";
}

namespace
{

/** max/mean of a non-negative series; 0 when the series is all-zero. */
double
maxOverMean(const std::vector<double> &xs)
{
    double sum = 0;
    double max = 0;
    for (double x : xs) {
        sum += x;
        max = std::max(max, x);
    }
    if (sum <= 0) {
        return 0.0;
    }
    return max / (sum / static_cast<double>(xs.size()));
}

/** Jain's fairness index: (sum x)^2 / (n * sum x^2), 1 when even. */
double
jainIndex(const std::vector<double> &xs)
{
    double sum = 0;
    double sum_sq = 0;
    for (double x : xs) {
        sum += x;
        sum_sq += x * x;
    }
    if (sum_sq <= 0) {
        return 1.0;
    }
    return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

} // namespace

ServingCluster::Config
ServingCluster::uniform(const EngineConfig &engine, int n,
                        RoutingPolicy policy)
{
    fatal_if(n <= 0, "cluster needs at least one replica");
    Config config;
    config.replicas.assign(static_cast<std::size_t>(n), engine);
    config.policy = policy;
    return config;
}

ServingCluster::ServingCluster(Config config)
    : config_(std::move(config))
{
    fatal_if(config_.replicas.empty(),
             "cluster needs at least one replica");
    engines_.reserve(config_.replicas.size());
    for (const EngineConfig &engine_config : config_.replicas) {
        // alloc-ok: cluster construction, once per replica
        engines_.push_back(std::make_unique<Engine>(engine_config));
    }
}

Router::Estimate
ServingCluster::estimateFor(const Request &request, int replica) const
{
    const Engine &engine = *engines_[static_cast<std::size_t>(replica)];
    const perf::KernelModel &kernel = engine.kernelModel();
    const EngineConfig &config = engine.config();
    // Occupancy estimate: prefill plus one batch-1 iteration per
    // output token at mid-generation context. Crude (ignores batching
    // and queueing) but deterministic and monotone in the request's
    // size, which is all the load model needs. It is the one pricing
    // site outside perf::priceIteration (allow-listed in
    // tools/check_invariants.py): a load model, not an iteration.
    TimeNs service =
        kernel.prefillAttention(config.backend, request.prompt_tokens,
                                request.prompt_tokens) +
        kernel.prefillLinear(request.prompt_tokens) +
        kernel.commTime(request.prompt_tokens);
    const i64 mid_ctx =
        request.prompt_tokens + request.max_new_tokens / 2;
    service += static_cast<TimeNs>(request.max_new_tokens) *
               (kernel.decodeLinear(1) +
                kernel.decodeAttention(config.backend, {&mid_ctx, 1}) +
                kernel.commTime(1));
    const u64 kv_bytes =
        config.model.kvBytesPerTokenPerWorker(config.tp_degree) *
        static_cast<u64>(request.totalLen());
    return Router::Estimate{service, kv_bytes};
}

ClusterReport
ServingCluster::run(std::vector<Request> trace)
{
    // Submit on the shared arrival timeline: time order, ties in trace
    // order (the order the replicas' arrival queues pop them in).
    std::stable_sort(trace.begin(), trace.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival_ns < b.arrival_ns;
                     });
    start(OnlineOptions{RoutingMode::kStatic, /*migration=*/false,
                        /*expected_requests=*/trace.size()});
    for (Request &request : trace) {
        submit(std::move(request)).expectOk("ServingCluster::run submit");
    }
    return shutdown();
}

void
ServingCluster::mergeReports(ClusterReport &report)
{
    const std::size_t n = report.replicas.size();

    // ---- Merge, in replica order (deterministic) ---------------------
    RunReport &merged = report.merged;
    for (const RunReport &replica : report.replicas) {
        merged.num_requests += replica.num_requests;
        merged.prompt_tokens += replica.prompt_tokens;
        merged.decode_tokens += replica.decode_tokens;
        merged.decode_iterations += replica.decode_iterations;
        merged.prefill_iterations += replica.prefill_iterations;
        merged.mixed_iterations += replica.mixed_iterations;
        merged.preemptions += replica.preemptions;
        merged.swap_outs += replica.swap_outs;
        merged.swap_ins += replica.swap_ins;
        merged.swap_out_bytes += replica.swap_out_bytes;
        merged.swap_in_bytes += replica.swap_in_bytes;
        merged.swap_stall_ns += replica.swap_stall_ns;
        merged.dropped_requests += replica.dropped_requests;
        merged.slo_requests += replica.slo_requests;
        merged.slo_met_requests += replica.slo_met_requests;
        merged.slo_violations_ttft += replica.slo_violations_ttft;
        merged.slo_violations_tbt += replica.slo_violations_tbt;
        merged.shed_requests += replica.shed_requests;
        merged.migrations_in += replica.migrations_in;
        merged.migrations_out += replica.migrations_out;
        merged.prefix_lookups += replica.prefix_lookups;
        merged.prefix_hits += replica.prefix_hits;
        merged.prefill_tokens_saved += replica.prefill_tokens_saved;
        merged.prefix_aliased_bytes += replica.prefix_aliased_bytes;
        merged.prefix_copied_bytes += replica.prefix_copied_bytes;
        merged.peak_batch =
            std::max(merged.peak_batch, replica.peak_batch);
        merged.makespan_ns =
            std::max(merged.makespan_ns, replica.makespan_ns);
        merged.busy_ns += replica.busy_ns;
        merged.comm_ns += replica.comm_ns;
    }

    // Latency samples: concatenate the raw per-replica stores, sized
    // once. Nothing is sorted here; quantiles read the sorted union
    // multiset, which is the same whatever order the samples arrive
    // in, and the report's reader sorts it once on its first query.
    const auto concat = [&](Percentiles RunReport::*store) {
        std::size_t total = 0;
        for (const RunReport &replica : report.replicas) {
            total += (replica.*store).count();
        }
        (merged.*store).reserve(total);
        for (const RunReport &replica : report.replicas) {
            (merged.*store).append(replica.*store);
        }
    };
    concat(&RunReport::latency_s);
    concat(&RunReport::ttft_s);
    concat(&RunReport::tbt_s);
    concat(&RunReport::normalized_latency_s);

    // Iteration records: k-way heap merge over the per-replica streams
    // (each already in start_ns order — one engine's clock only moves
    // forward). O(total log k) instead of re-sorting the concatenation;
    // ties order by replica index, reproducing byte-for-byte what the
    // historical concat + stable_sort by start_ns produced.
    struct Cursor
    {
        const std::vector<IterationRecord> *records = nullptr;
        std::size_t pos = 0;
        std::size_t replica = 0;
    };
    const auto after = [](const Cursor &a, const Cursor &b) {
        const TimeNs ta = (*a.records)[a.pos].start_ns;
        const TimeNs tb = (*b.records)[b.pos].start_ns;
        if (ta != tb) {
            return ta > tb;
        }
        return a.replica > b.replica;
    };
    std::vector<Cursor> heap;
    heap.reserve(n);
    std::size_t total_iterations = 0;
    for (std::size_t r = 0; r < n; ++r) {
        const auto &records = report.replicas[r].iterations;
        total_iterations += records.size();
        if (!records.empty()) {
            heap.push_back(Cursor{&records, 0, r});
        }
    }
    std::make_heap(heap.begin(), heap.end(), after);
    merged.iterations.reserve(total_iterations);
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), after);
        Cursor &cursor = heap.back();
        merged.iterations.push_back((*cursor.records)[cursor.pos]);
        if (++cursor.pos < cursor.records->size()) {
            std::push_heap(heap.begin(), heap.end(), after);
        } else {
            heap.pop_back();
        }
    }

    // ---- Cross-replica imbalance -------------------------------------
    std::vector<double> requests(n);
    std::vector<double> tokens(n);
    std::vector<double> busy(n);
    for (std::size_t r = 0; r < n; ++r) {
        const RunReport &replica = report.replicas[r];
        requests[r] = static_cast<double>(replica.num_requests);
        tokens[r] = static_cast<double>(replica.prompt_tokens +
                                        replica.decode_tokens);
        busy[r] = static_cast<double>(replica.busy_ns);
    }
    report.request_imbalance = maxOverMean(requests);
    report.token_imbalance = maxOverMean(tokens);
    report.busy_imbalance = maxOverMean(busy);
    report.jain_fairness = jainIndex(requests);
}

void
ServingCluster::advanceAllTo(TimeNs horizon_ns)
{
    // Replicas are independent within the window, so stepping them
    // one after another is as good as any interleaving.
    for (const auto &engine : engines_) {
        engine->advanceTo(horizon_ns);
    }
}

void
ServingCluster::maybeMigrate()
{
    if (engines_.size() < 2) {
        return;
    }
    // Donor: the worst-loaded replica (saturation trumps score, then
    // higher score, then lower index — mirror image of routeLive's
    // receiver ordering, so both are pure functions of the
    // snapshots). Receiver: routeLive's pick among the others.
    std::vector<Router::LiveLoad> loads;
    loads.reserve(engines_.size());
    for (const auto &engine : engines_) {
        loads.push_back(engine->liveLoad());
    }
    std::size_t donor = 0;
    std::size_t receiver = 0;
    for (std::size_t r = 1; r < engines_.size(); ++r) {
        const bool worse =
            (loads[r].kv_saturated && !loads[donor].kv_saturated) ||
            (loads[r].kv_saturated == loads[donor].kv_saturated &&
             Router::liveScore(loads[r]) >
                 Router::liveScore(loads[donor]));
        if (worse) {
            donor = r;
        }
        const bool better =
            (loads[receiver].kv_saturated && !loads[r].kv_saturated) ||
            (loads[receiver].kv_saturated == loads[r].kv_saturated &&
             Router::liveScore(loads[r]) <
                 Router::liveScore(loads[receiver]));
        if (better) {
            receiver = r;
        }
    }
    if (donor == receiver || loads[donor].queued == 0) {
        return;
    }
    // A handoff only pays off when the receiver can actually start
    // the migrant: an unsaturated replica with an empty queue.
    // Migrating into another line just trades one wait for another
    // (plus a swap round-trip when KV moves with it).
    if (loads[receiver].kv_saturated || loads[receiver].queued > 0) {
        return;
    }
    // And only when the gap is worth it: the donor is saturated while
    // the receiver is not, or the scores differ by more than one
    // queued request's weight (hysteresis — without it near-balanced
    // replicas would trade the same request back and forth at
    // successive arrivals).
    const double gap = Router::liveScore(loads[donor]) -
                       Router::liveScore(loads[receiver]);
    const bool pressured =
        loads[donor].kv_saturated && !loads[receiver].kv_saturated;
    if (!pressured && gap <= 3.0) {
        return;
    }
    // Swapped requests first: moving one also moves its KV off the
    // donor's host tier (through the shared-host handover), which is
    // what relieves an overcommitted replica. Fall back to handing
    // off a queued request (pure bookkeeping, no KV anywhere).
    Engine &from = *engines_[donor];
    Engine &to = *engines_[receiver];
    if (!from.migrateSwappedTo(to)) {
        from.migrateQueuedTo(to);
    }
}

void
ServingCluster::start(const OnlineOptions &options)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Engine virtual clocks carry across sessions, which would shift
    // every arrival of a second one into the past: one cluster, one
    // session.
    panic_if(online_started_,
             "ServingCluster::start: the cluster already served a "
             "trace or session (single-shot; construct a fresh one)");
    online_started_ = true;
    online_options_ = options;
    online_assigned_.assign(engines_.size(), 0);

    std::vector<Router::Replica> replicas;
    replicas.reserve(engines_.size());
    for (const auto &engine : engines_) {
        replicas.push_back(
            Router::Replica{engine->backend().budgetBytes()});
    }
    online_router_ = // alloc-ok: session start, once per cluster
        std::make_unique<Router>(config_.policy, std::move(replicas));
    for (const auto &engine : engines_) {
        engine->beginOnline(options.expected_requests);
    }
}

Status
ServingCluster::submit(Request request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!online_started_) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "submit before start(): no online session "
                           "is open");
    }
    if (online_shutdown_) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "submit after shutdown(): the online "
                           "session is closed");
    }
    if (Status status = request.validate(); !status.isOk()) {
        return status;
    }
    if (request.arrival_ns < online_last_arrival_ns_) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "online arrivals must be submitted in "
                           "time order");
    }
    online_last_arrival_ns_ = request.arrival_ns;

    // Bring every replica up to the arrival instant first: live
    // routing and migration must see the cluster as it stands *now*,
    // not as of the previous arrival.
    advanceAllTo(request.arrival_ns);
    if (online_options_.migration) {
        maybeMigrate();
    }

    int chosen = 0;
    if (online_options_.routing == RoutingMode::kLive) {
        chosen = online_router_->routeLive(
            request.arrival_ns, [this](int replica) {
                return engines_[static_cast<std::size_t>(replica)]
                    ->liveLoad();
            });
    } else {
        chosen = online_router_->route(
            request.arrival_ns, [this, &request](int replica) {
                return estimateFor(request, replica);
            });
    }
    ++online_assigned_[static_cast<std::size_t>(chosen)];
    return engines_[static_cast<std::size_t>(chosen)]->submitOnline(
        std::move(request));
}

ClusterReport
ServingCluster::shutdown()
{
    std::lock_guard<std::mutex> lock(mutex_);
    panic_if(!online_started_ || online_shutdown_,
             "ServingCluster::shutdown without an open session");
    online_shutdown_ = true;

    const std::size_t n = engines_.size();
    ClusterReport report;
    report.replicas.resize(n);
    report.assigned = online_assigned_;

    advanceAllTo(sim::kNoEventNs); // drain every replica completely
    for (std::size_t r = 0; r < n; ++r) {
        engines_[r]->closeOnline();
        report.replicas[r] = engines_[r]->endRun();
    }
    mergeReports(report);
    return report;
}

} // namespace vattn::serving
