/**
 * @file
 * Serving benchmark: SLO capacity and simulator speed on four open-loop
 * workloads (README.md in this directory documents every metric).
 *
 * Every workload sweeps a fixed ladder of offered rates. Each rung
 * serves freshly generated Poisson (bursty, for the fleet) traces
 * through the public online entry points — Engine::beginOnline /
 * submitOnline / stepRun / closeOnline / endRun for one replica,
 * ServingCluster::start / submit / shutdown for the fleet — with TTFT
 * and TBT deadlines on every request. The generator is open loop in
 * virtual time: requests are submitted in arrival order and every
 * latency counts from the request's scheduled arrival, so the
 * generator can never fall behind schedule.
 *
 * Each rung serves several independent traces (sub-seeds of --seed),
 * more at the ref rung, whose tail latencies need the samples. Modeled
 * metrics pool a rung's traces and are a pure function of the seed.
 * While --seconds allows, wall-only passes over every rung draw fresh
 * traces, so the wall metrics average over more inputs.
 *
 * --trace FILE then replays the modeled traces traced: iteration
 * records and stream callbacks on, a wall span around every call into
 * the system, virtual-time spans per request and per iteration (Chrome
 * Trace Event JSON, for the first trace of the ref and top rungs), and
 * per-layer metrics over every rung. Each traced trace must reproduce
 * its untraced run bit for bit, so tracing provably leaves the
 * simulation alone.
 *
 * The last stdout line is one JSON object {"correct", "attempted",
 * "failed", "metrics"} holding the end-to-end metrics, or the per-layer
 * metrics under --trace. Any failed check exits 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "serving/cluster.hh"
#include "serving/engine.hh"
#include "serving/workload.hh"

using namespace vattn;
using namespace vattn::bench;
using serving::Request;

namespace
{

using WallClock = std::chrono::steady_clock;

double
secondsBetween(WallClock::time_point from, WallClock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** FNV-1a over modeled results: equal hashes mean bit-identical
 *  simulations (a trace served traced and untraced). */
struct Fingerprint
{
    u64 hash = 1469598103934665603ULL;

    template <typename T>
    void
    add(const T &value)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (const unsigned char b : bytes) {
            hash = (hash ^ b) * 1099511628211ULL;
        }
    }
};

/**
 * Exact sample distribution kept as sorted (value, count) runs: pooled
 * TBT has one sample per token but only about as many distinct values
 * as iterations, so this stays small where a raw vector would not.
 * Quantiles interpolate exactly like Percentiles::quantile.
 */
class Dist
{
  public:
    void add(double x) { pending_.push_back(x); }

    /** Add an ascending sample set (Percentiles::sorted()). */
    void
    addSorted(const std::vector<double> &xs)
    {
        compact();
        runs_ = mergeRuns(runs_, toRuns(xs));
        count_ += xs.size();
    }

    void
    merge(const Dist &other)
    {
        other.compact();
        compact();
        runs_ = mergeRuns(runs_, other.runs_);
        count_ += other.count_;
    }

    u64
    count() const
    {
        compact();
        return count_;
    }

    double
    quantile(double q) const
    {
        compact();
        if (count_ == 0) {
            return 0;
        }
        const double pos = q * static_cast<double>(count_ - 1);
        const auto lo = static_cast<u64>(std::floor(pos));
        const auto hi = static_cast<u64>(std::ceil(pos));
        const double frac = pos - static_cast<double>(lo);
        return at(lo) * (1.0 - frac) + at(hi) * frac;
    }

    void
    hashInto(Fingerprint &fp) const
    {
        compact();
        for (const auto &[value, n] : runs_) {
            fp.add(value);
            fp.add(n);
        }
    }

  private:
    using Runs = std::vector<std::pair<double, u64>>;

    static Runs
    mergeRuns(const Runs &a, const Runs &b)
    {
        Runs out;
        out.reserve(a.size() + b.size());
        std::size_t i = 0;
        std::size_t j = 0;
        while (i < a.size() || j < b.size()) {
            const bool take_a =
                j == b.size() || (i < a.size() && a[i].first <= b[j].first);
            const auto &run = take_a ? a[i++] : b[j++];
            if (!out.empty() && out.back().first == run.first) {
                out.back().second += run.second;
            } else {
                out.push_back(run);
            }
        }
        return out;
    }

    static Runs
    toRuns(const std::vector<double> &sorted)
    {
        Runs runs;
        for (const double x : sorted) {
            if (!runs.empty() && runs.back().first == x) {
                ++runs.back().second;
            } else {
                runs.emplace_back(x, 1);
            }
        }
        return runs;
    }

    void
    compact() const
    {
        if (pending_.empty()) {
            return;
        }
        std::sort(pending_.begin(), pending_.end());
        count_ += pending_.size();
        runs_ = mergeRuns(runs_, toRuns(pending_));
        pending_.clear();
        pending_.shrink_to_fit();
    }

    double
    at(u64 index) const
    {
        for (const auto &[value, n] : runs_) {
            if (index < n) {
                return value;
            }
            index -= n;
        }
        return runs_.back().first;
    }

    mutable Runs runs_;
    mutable std::vector<double> pending_;
    mutable u64 count_ = 0;
};

// ---- Workloads ---------------------------------------------------------

enum class Kind
{
    kChat,
    kLongctx,
    kPrefix,
    kFleet,
};

struct Workload
{
    Kind kind;
    const char *name;
    /** Offered rates in QPS, ascending; the top rung is saturated. */
    std::vector<double> ladder;
    /** Index of the reference rung (latency and goodput metrics). */
    std::size_t ref;
    /** Requests per rung, split into kTracesPerRung traces (the ref rung
     *  serves kRefTraceFactor times as many). */
    int requests;
    double ttft_slo_s;
    double tbt_slo_s;
};

// Why each workload exists (the layers it stresses and bypasses) is
// recorded in README.md and BENCHMARK.json.
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {Kind::kChat, "chat", {10, 14, 16, 17, 18, 19, 20, 22}, 1, 4000,
         2.0, 0.2},
        {Kind::kLongctx, "longctx",
         {0.20, 0.22, 0.24, 0.26, 0.28, 0.30, 0.33, 0.36}, 1, 1200, 15.0,
         0.5},
        {Kind::kPrefix, "prefix", {1.5, 2, 2.5, 3, 3.5, 4, 5, 6}, 1, 3000,
         2.0, 0.2},
        {Kind::kFleet, "fleet", {3, 4, 4.5, 5, 5.5, 6, 7, 8}, 1, 20000, 2.0,
         0.2},
    };
    return all;
}

/** Decorrelated sub-seed of @p seed for trace @p trace (splitmix64). */
u64
traceSeed(u64 seed, int trace)
{
    u64 z = seed * 0x9e3779b97f4a7c15ULL + static_cast<u64>(trace) + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * One rung's trace. Request shapes depend on the sub-seed only, and the
 * Poisson arrivals reuse the same draws at every rate (common random
 * numbers), so neighbouring rungs differ only in load.
 */
std::vector<Request>
makeTrace(const Workload &w, double qps, int n, u64 seed)
{
    std::vector<Request> trace;
    switch (w.kind) {
      case Kind::kChat:
        trace = serving::shareGptTrace(n, seed);
        break;
      case Kind::kLongctx:
        trace = serving::arxivOnlineTrace(n, seed);
        break;
      case Kind::kPrefix:
        trace = serving::sharedSystemPromptTrace(n, 8, 8192, 512, seed);
        break;
      case Kind::kFleet:
        trace = serving::skewedTenantOnlineTrace(n, 0.4, qps, 60.0, seed);
        break;
    }
    if (w.kind != Kind::kFleet) {
        serving::assignPoissonArrivals(trace, qps, seed ^ 0x5eedULL);
    }
    for (Request &request : trace) {
        request.ttft_deadline_ns =
            static_cast<TimeNs>(std::llround(w.ttft_slo_s * 1e9));
        request.tbt_deadline_ns =
            static_cast<TimeNs>(std::llround(w.tbt_slo_s * 1e9));
    }
    return trace;
}

serving::EngineConfig
engineConfig(const Workload &w)
{
    const bool fleet = w.kind == Kind::kFleet;
    serving::EngineConfig config = makeEngineConfig(
        w.kind == Kind::kLongctx ? Setup{perf::ModelSpec::llama3_8B(), 2}
                                 : Setup{perf::ModelSpec::yi6B(), 1},
        fleet ? perf::BackendKind::kFa2Paged
              : perf::BackendKind::kFa2VAttention);
    config.scheduler.mode = serving::SchedulingMode::kStallFreeChunked;
    config.scheduler.chunk_tokens = 2048;
    config.enable_prefix_caching = w.kind == Kind::kPrefix;
    if (fleet) {
        config.scheduler.max_num_seqs = 16;
        config.vattn.max_batch_size = 16;
        config.preemption_policy = serving::PreemptionPolicy::kSwap;
    }
    return config;
}

/** Four Yi-6B replicas, one of them KV-starved (per-worker budgets of
 *  12K/24K/24K/24K tokens). */
serving::ServingCluster::Config
fleetConfig(const Workload &w, bool record_iterations)
{
    serving::ServingCluster::Config config;
    const u64 token_bytes =
        perf::ModelSpec::yi6B().kvBytesPerTokenPerWorker(1);
    for (const u64 tokens : {12 * 1024, 24 * 1024, 24 * 1024, 24 * 1024}) {
        serving::EngineConfig replica = engineConfig(w);
        replica.kv_budget_override = tokens * token_bytes;
        replica.record_iterations = record_iterations;
        config.replicas.push_back(replica);
    }
    return config;
}

// ---- Tracing -------------------------------------------------------------

/** One Chrome "complete" event. Wall spans live on pid 1 (µs since the
 *  run started); virtual-time spans on one pid per rung (µs of
 *  simulated time). */
struct Span
{
    std::string name;
    int pid = 1;
    i64 tid = 1;
    double ts_us = 0;
    double dur_us = 0;
    u64 id = 0;
    u64 parent = 0; ///< 0 = root
    i64 request = -1;
};

/** In-memory span store, written once as Chrome Trace Event JSON. */
class SpanLog
{
  public:
    explicit SpanLog(WallClock::time_point origin) : origin_(origin) {}

    double
    wallUs(WallClock::time_point t) const
    {
        return 1e6 * secondsBetween(origin_, t);
    }

    u64
    add(Span span)
    {
        span.id = spans_.size() + 1;
        spans_.push_back(std::move(span));
        return spans_.back().id;
    }

    /** Id for a span whose extent is known only later (see fill). */
    u64 reserve() { return add(Span{}); }

    void
    fill(u64 id, Span span)
    {
        span.id = id;
        spans_[id - 1] = std::move(span);
    }

    void
    nameProcess(int pid, const std::string &name)
    {
        processes_.emplace_back(pid, name);
    }

    void
    nameThread(int pid, i64 tid, const std::string &name)
    {
        threads_.push_back({pid, tid, name});
    }

    bool
    write(const std::string &path) const
    {
        std::FILE *file = std::fopen(path.c_str(), "w");
        if (file == nullptr) {
            return false;
        }
        std::fprintf(file,
                     "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        const char *sep = "";
        for (const auto &[pid, name] : processes_) {
            std::fprintf(file,
                         "%s{\"ph\": \"M\", \"name\": \"process_name\", "
                         "\"pid\": %d, \"tid\": 0, \"args\": {\"name\": "
                         "\"%s\"}}",
                         sep, pid, name.c_str());
            sep = ",\n";
        }
        for (const Thread &t : threads_) {
            std::fprintf(file,
                         "%s{\"ph\": \"M\", \"name\": \"thread_name\", "
                         "\"pid\": %d, \"tid\": %lld, \"args\": "
                         "{\"name\": \"%s\"}}",
                         sep, t.pid, static_cast<long long>(t.tid),
                         t.name.c_str());
            sep = ",\n";
        }
        for (const Span &s : spans_) {
            std::fprintf(file,
                         "%s{\"ph\": \"X\", \"name\": \"%s\", \"pid\": %d, "
                         "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"span_id\": %llu, \"parent\": %llu",
                         sep, s.name.c_str(), s.pid,
                         static_cast<long long>(s.tid), s.ts_us, s.dur_us,
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent));
            if (s.request >= 0) {
                std::fprintf(file, ", \"request\": %lld",
                             static_cast<long long>(s.request));
            }
            std::fprintf(file, "}}");
            sep = ",\n";
        }
        std::fprintf(file, "\n]}\n");
        return std::fclose(file) == 0;
    }

    std::size_t size() const { return spans_.size(); }

  private:
    struct Thread
    {
        int pid;
        i64 tid;
        std::string name;
    };

    WallClock::time_point origin_;
    std::vector<Span> spans_; ///< span id = index + 1
    std::vector<std::pair<int, std::string>> processes_;
    std::vector<Thread> threads_;
};

/** Wall-clock layer accumulators of the traced run, over every rung. */
struct WallLayers
{
    explicit WallLayers(std::size_t rungs)
        : gen_s(rungs), construct_s(rungs), drain_s(rungs)
    {
    }

    /** One sample per trace, indexed [rung][trace]. */
    std::vector<std::vector<double>> gen_s;
    std::vector<std::vector<double>> construct_s;
    std::vector<std::vector<double>> drain_s;
    Dist arrival_us; ///< one sample per arrival
    double live_load_ns = 0;
    u64 live_load_calls = 0;
};

/** Modeled layer data of one rung, pooled over its traced traces. */
struct ModelLayers
{
    Dist queue_wait_s;
    Dist iter_ms;
    double batch_sum = 0;
    double chunk_tokens_sum = 0;
    i64 chunk_iterations = 0;
    i64 iterations = 0;
    i64 mixed_iterations = 0;
    double busy_ns = 0;
    double replica_ns = 0; ///< makespan x replicas
    double mem_critical_ns = 0;
    double comm_ns = 0;
    double swap_stall_ns = 0;
    double kv_util_sum = 0;
    i64 kv_util_samples = 0;
    double kv_util_peak = 0;
    i64 preemptions = 0;
    i64 dropped = 0;
    i64 swap_outs = 0;
    i64 prefix_lookups = 0;
    i64 prefix_hits = 0;
    i64 prefill_saved = 0;
    i64 prompt_tokens = 0;
    i64 sync_handles = 0;
    i64 background_handles = 0;
    i64 reclaimed_handles = 0;
    i64 reused_cached_slots = 0;
    i64 map_calls = 0;
    i64 unmap_calls = 0;
    i64 create_calls = 0;
    double request_imbalance = 0; ///< summed over traces
    double busy_imbalance = 0;
    double jain_fairness = 0;
    i64 migrations = 0;
    int traces = 0;
};

/** Traced-run state shared by every rung. */
struct Tracing
{
    WallLayers wall;
    ModelLayers ref;
    ModelLayers top;
    SpanLog spans;

    Tracing(WallClock::time_point origin, std::size_t rungs)
        : wall(rungs), spans(origin)
    {
    }
};

/** A request's virtual-time lifecycle, captured in on_finish. */
struct Timeline
{
    i64 id;
    TimeNs arrival_ns;
    TimeNs first_scheduled_ns;
    TimeNs prefill_done_ns;
    TimeNs finish_ns;
    bool finished;
};

/**
 * Traced-run instrumentation of one rung. Untraced runs construct none,
 * so they pay no per-step or per-arrival timing. The stream callbacks
 * may run on the fleet's replica threads, hence the mutex.
 */
class RungProbe
{
  public:
    /**
     * @param model pooled layer data of this rung, or null when the rung
     *        is neither ref nor top
     * @param spans span store, or null when this rung keeps no spans
     */
    RungProbe(WallLayers &wall, std::size_t rung, ModelLayers *model,
              SpanLog *spans, int virtual_pid)
        : wall_(wall), rung_(rung), model_(model), spans_(spans),
          virtual_pid_(virtual_pid)
    {
        if (spans_ != nullptr) {
            rung_span_ = spans_->reserve();
        }
        callbacks_.on_first_token = [this](const Request &r) {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_wait_s_.add(
                SimClock::toSeconds(r.first_scheduled_ns - r.arrival_ns));
        };
        callbacks_.on_finish = [this](const Request &r) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (r.id < finish_calls_.size()) {
                ++finish_calls_[r.id];
            }
            if (spans_ != nullptr) {
                timelines_.push_back(
                    {static_cast<i64>(r.id), r.arrival_ns,
                     r.first_scheduled_ns, r.prefill_done_ns, r.finish_ns,
                     r.state == Request::State::kFinished});
            }
        };
    }

    RungProbe(const RungProbe &) = delete;
    RungProbe &operator=(const RungProbe &) = delete;

    bool recordIterations() const { return model_ != nullptr; }

    /** Attach the stream callbacks to every request of @p trace. */
    void
    attach(std::vector<Request> &trace)
    {
        finish_calls_.assign(trace.size(), 0);
        for (Request &request : trace) {
            request.stream = &callbacks_;
        }
    }

    /** Keep a wall span for [start, stop) under the rung span. */
    void
    span(const char *name, WallClock::time_point start,
         WallClock::time_point stop)
    {
        if (spans_ == nullptr) {
            return;
        }
        Span span;
        span.name = name;
        span.ts_us = spans_->wallUs(start);
        span.dur_us = spans_->wallUs(stop) - span.ts_us;
        span.parent = rung_span_;
        spans_->add(std::move(span));
    }

    /** Start of one arrival: times the router's live-load snapshot of
     *  every replica (const, so the simulation is untouched). */
    void
    beginArrival(const std::vector<serving::Engine *> &engines)
    {
        arrival_start_ = WallClock::now();
        for (const serving::Engine *engine : engines) {
            (void)engine->liveLoad();
        }
        wall_.live_load_ns +=
            1e9 * secondsBetween(arrival_start_, WallClock::now());
        wall_.live_load_calls += engines.size();
    }

    void
    endArrival()
    {
        wall_.arrival_us.add(
            1e6 * secondsBetween(arrival_start_, WallClock::now()));
    }

    /** KV utilization after a step or a submission. */
    void
    sampleKv(serving::MemoryBackend &backend)
    {
        if (model_ == nullptr) {
            return;
        }
        const double util =
            ratio(static_cast<double>(backend.bytesInUse()),
                  static_cast<double>(backend.budgetBytes()));
        model_->kv_util_sum += util;
        ++model_->kv_util_samples;
        model_->kv_util_peak = std::max(model_->kv_util_peak, util);
    }

    /** Fold the finished rung into the layer aggregates and spans. */
    void
    finish(double gen_s, double construct_s, double drain_s,
           const serving::RunReport &merged,
           const std::vector<const serving::RunReport *> &replicas,
           std::vector<std::string> &errors)
    {
        std::size_t bad = 0;
        for (const u32 calls : finish_calls_) {
            bad += calls != 1 ? 1 : 0;
        }
        if (bad > 0) {
            errors.push_back(std::to_string(bad) +
                             " requests saw on_finish fire != 1 times");
        }
        wall_.gen_s[rung_].push_back(gen_s);
        wall_.construct_s[rung_].push_back(construct_s);
        wall_.drain_s[rung_].push_back(drain_s);
        if (model_ != nullptr) {
            addModelLayers(merged, replicas);
        }
        if (spans_ != nullptr) {
            addVirtualSpans(replicas);
        }
    }

    /** vAttention runtime and driver counters of one replica. */
    void
    addVattnCounters(serving::Engine &engine)
    {
        serving::VAttentionBackend *backend = engine.vattnBackend();
        if (model_ == nullptr || backend == nullptr) {
            return;
        }
        core::WorkerGroup &group = backend->workerGroup();
        const core::RuntimeStats &stats = group.stats();
        model_->sync_handles += stats.sync_handles;
        model_->background_handles += stats.background_handles;
        model_->reclaimed_handles += stats.reclaimed_handles;
        model_->reused_cached_slots += stats.reused_cached_slots;
        for (int w = 0; w < group.numWorkers(); ++w) {
            const cuvmm::DriverCounters &c = group.driver(w).counters();
            model_->map_calls += static_cast<i64>(c.map);
            model_->unmap_calls += static_cast<i64>(c.unmap);
            model_->create_calls += static_cast<i64>(c.create);
        }
    }

    void
    addClusterStats(double request_imbalance, double busy_imbalance,
                    double jain_fairness)
    {
        if (model_ == nullptr) {
            return;
        }
        model_->request_imbalance += request_imbalance;
        model_->busy_imbalance += busy_imbalance;
        model_->jain_fairness += jain_fairness;
    }

    /** Close the rung span (the wall extent of the whole rung). */
    void
    closeRung(const std::string &name, WallClock::time_point start)
    {
        if (spans_ == nullptr) {
            return;
        }
        Span rung;
        rung.name = name;
        rung.ts_us = spans_->wallUs(start);
        rung.dur_us = spans_->wallUs(WallClock::now()) - rung.ts_us;
        spans_->fill(rung_span_, std::move(rung));
    }

  private:
    void
    addModelLayers(const serving::RunReport &merged,
                   const std::vector<const serving::RunReport *> &replicas)
    {
        ModelLayers &m = *model_;
        ++m.traces;
        for (const serving::RunReport *report : replicas) {
            for (const serving::IterationRecord &it : report->iterations) {
                m.iter_ms.add(1e-6 * static_cast<double>(it.duration_ns));
                m.batch_sum += static_cast<double>(it.batch);
                if (it.prefill_chunk_tokens > 0) {
                    m.chunk_tokens_sum +=
                        static_cast<double>(it.prefill_chunk_tokens);
                    ++m.chunk_iterations;
                }
                m.mem_critical_ns += static_cast<double>(it.mem_critical_ns);
            }
            m.replica_ns += static_cast<double>(merged.makespan_ns);
        }
        m.iterations += merged.decode_iterations +
                        merged.prefill_iterations + merged.mixed_iterations;
        m.mixed_iterations += merged.mixed_iterations;
        m.busy_ns += static_cast<double>(merged.busy_ns);
        m.comm_ns += static_cast<double>(merged.comm_ns);
        m.swap_stall_ns += static_cast<double>(merged.swap_stall_ns);
        m.preemptions += static_cast<i64>(merged.preemptions);
        m.dropped += merged.dropped_requests;
        m.swap_outs += static_cast<i64>(merged.swap_outs);
        m.prefix_lookups += merged.prefix_lookups;
        m.prefix_hits += merged.prefix_hits;
        m.prefill_saved += merged.prefill_tokens_saved;
        m.prompt_tokens += merged.prompt_tokens;
        m.migrations += static_cast<i64>(merged.migrations_in);
        m.queue_wait_s.merge(queue_wait_s_);
    }

    /** Iterations per replica (the first kMaxIterationSpans), and each
     *  request's queued / prefill / decode phases, in virtual time. */
    void
    addVirtualSpans(const std::vector<const serving::RunReport *> &replicas)
    {
        // A fleet trace runs ~250K iterations per rung; a viewer needs a
        // window, not all of them.
        constexpr std::size_t kMaxIterationSpans = 25000;
        const auto us = [](TimeNs ns) {
            return 1e-3 * static_cast<double>(ns);
        };
        const int pid = virtual_pid_;
        for (std::size_t r = 0; r < replicas.size(); ++r) {
            const serving::RunReport &report = *replicas[r];
            const std::size_t kept =
                std::min(report.iterations.size(), kMaxIterationSpans);
            const i64 tid = static_cast<i64>(r);
            spans_->nameThread(
                pid, tid,
                "replica " + std::to_string(r) +
                    (kept < report.iterations.size()
                         ? " (first " + std::to_string(kept) +
                               " iterations)"
                         : ""));
            Span lane;
            lane.name = "replica " + std::to_string(r);
            lane.pid = pid;
            lane.tid = tid;
            lane.dur_us = us(report.makespan_ns);
            const u64 parent = spans_->add(std::move(lane));
            for (std::size_t k = 0; k < kept; ++k) {
                const serving::IterationRecord &it = report.iterations[k];
                Span span;
                span.name = it.is_prefill                 ? "iter.prefill"
                            : it.prefill_chunk_tokens > 0 ? "iter.mixed"
                                                          : "iter.decode";
                span.pid = pid;
                span.tid = tid;
                span.ts_us = us(it.start_ns);
                span.dur_us = us(it.duration_ns);
                span.parent = parent;
                spans_->add(std::move(span));
            }
        }
        // Requests overlap freely; pack them greedily onto lanes where
        // they do not, since Perfetto nests "X" events per track.
        std::sort(timelines_.begin(), timelines_.end(),
                  [](const Timeline &a, const Timeline &b) {
                      return a.arrival_ns < b.arrival_ns ||
                             (a.arrival_ns == b.arrival_ns && a.id < b.id);
                  });
        constexpr i64 kLaneBase = 1000;
        std::vector<TimeNs> lane_free;
        for (const Timeline &t : timelines_) {
            std::size_t lane = 0;
            while (lane < lane_free.size() &&
                   lane_free[lane] > t.arrival_ns) {
                ++lane;
            }
            const TimeNs end = std::max(t.finish_ns, t.arrival_ns);
            const i64 tid = kLaneBase + static_cast<i64>(lane);
            if (lane == lane_free.size()) {
                lane_free.push_back(end);
                spans_->nameThread(pid, tid,
                                   "requests " + std::to_string(lane));
            } else {
                lane_free[lane] = end;
            }
            Span request;
            request.name = t.finished ? "request" : "request.rejected";
            request.pid = pid;
            request.tid = tid;
            request.ts_us = us(t.arrival_ns);
            request.dur_us = us(end - t.arrival_ns);
            request.request = t.id;
            const u64 parent = spans_->add(std::move(request));
            // Boundaries clamped monotone, so the phases tile the span.
            const TimeNs scheduled =
                t.finished
                    ? std::clamp(t.first_scheduled_ns, t.arrival_ns, end)
                    : end;
            const TimeNs first_token =
                t.finished ? std::clamp(t.prefill_done_ns, scheduled, end)
                           : end;
            const std::pair<const char *, std::pair<TimeNs, TimeNs>>
                phases[] = {{"queued", {t.arrival_ns, scheduled}},
                            {"prefill", {scheduled, first_token}},
                            {"decode", {first_token, end}}};
            for (const auto &[name, range] : phases) {
                if (range.second <= range.first) {
                    continue;
                }
                Span phase;
                phase.name = name;
                phase.pid = pid;
                phase.tid = tid;
                phase.ts_us = us(range.first);
                phase.dur_us = us(range.second - range.first);
                phase.parent = parent;
                phase.request = t.id;
                spans_->add(std::move(phase));
            }
        }
    }

    WallLayers &wall_;
    std::size_t rung_;
    ModelLayers *model_;
    SpanLog *spans_;
    int virtual_pid_;
    u64 rung_span_ = 0;
    WallClock::time_point arrival_start_;
    serving::StreamCallbacks callbacks_;

    std::mutex mutex_;
    std::vector<u32> finish_calls_;
    Dist queue_wait_s_;
    std::vector<Timeline> timelines_;
};

/** Time @p call; in traced runs also keep it as a wall span. */
template <typename F>
double
timeCall(RungProbe *probe, const char *name, F &&call)
{
    const WallClock::time_point start = WallClock::now();
    call();
    const WallClock::time_point stop = WallClock::now();
    if (probe != nullptr) {
        probe->span(name, start, stop);
    }
    return secondsBetween(start, stop);
}

// ---- Serving one rung ------------------------------------------------------

/** Outcome of one trace of one rung. Everything but the two wall times
 *  is modeled: a pure function of the workload, rate and sub-seed. */
struct RungResult
{
    i64 sent = 0;
    i64 finished = 0;
    i64 dropped = 0;
    i64 shed = 0;
    i64 rejected = 0;
    i64 slo_met = 0;
    i64 decode_tokens = 0;
    i64 iterations = 0;
    double makespan_s = 0;
    Dist ttft_s;
    Dist tbt_s;
    u64 trace_fingerprint = 0;
    u64 fingerprint = 0;
    std::vector<std::string> errors;

    double setup_s = 0; ///< wall: trace generation + construction
    double serve_s = 0; ///< wall: the serving loop
};

u64
traceFingerprint(const std::vector<Request> &trace)
{
    Fingerprint fp;
    for (const Request &request : trace) {
        fp.add(request.prompt_tokens);
        fp.add(request.max_new_tokens);
        fp.add(request.arrival_ns);
    }
    return fp.hash;
}

void
collectReport(const serving::RunReport &report, RungResult &out)
{
    out.finished = report.num_requests;
    out.dropped = report.dropped_requests;
    out.shed = report.shed_requests;
    out.slo_met = report.slo_met_requests;
    out.decode_tokens = report.decode_tokens;
    out.iterations = report.decode_iterations + report.prefill_iterations +
                     report.mixed_iterations;
    out.makespan_s = SimClock::toSeconds(report.makespan_ns);
    if (report.ttft_s.count() > 0) {
        out.ttft_s.addSorted(report.ttft_s.sorted());
    }
    if (report.tbt_s.count() > 0) {
        out.tbt_s.addSorted(report.tbt_s.sorted());
    }
    if (out.finished + out.dropped + out.shed != out.sent) {
        out.errors.push_back(
            "conservation: finished " + std::to_string(out.finished) +
            " + dropped " + std::to_string(out.dropped) + " + shed " +
            std::to_string(out.shed) + " != sent " +
            std::to_string(out.sent));
    }
    Fingerprint fp;
    fp.add(out.trace_fingerprint);
    fp.add(report.num_requests);
    fp.add(report.makespan_ns);
    fp.add(report.busy_ns);
    fp.add(report.prompt_tokens);
    fp.add(report.decode_tokens);
    fp.add(report.decode_iterations);
    fp.add(report.prefill_iterations);
    fp.add(report.mixed_iterations);
    fp.add(report.preemptions);
    fp.add(report.peak_batch);
    fp.add(report.comm_ns);
    fp.add(report.swap_outs);
    fp.add(report.swap_ins);
    fp.add(report.swap_stall_ns);
    fp.add(report.dropped_requests);
    fp.add(report.slo_requests);
    fp.add(report.slo_met_requests);
    fp.add(report.shed_requests);
    fp.add(report.migrations_in);
    fp.add(report.prefix_hits);
    fp.add(report.prefill_tokens_saved);
    out.ttft_s.hashInto(fp);
    out.tbt_s.hashInto(fp);
    out.fingerprint = fp.hash;
}

void
checkAudit(const serving::Engine &engine, const std::string &who,
           RungResult &out)
{
    const audit::AuditReport audit = engine.auditNow();
    if (!audit.ok()) {
        out.errors.push_back(who + " audit failed: " + audit.toString());
    }
}

RungResult
serveEngine(const Workload &w, double qps, int n, u64 seed,
            RungProbe *probe)
{
    RungResult out;
    std::vector<Request> trace;
    const double gen_s = timeCall(probe, "workload.gen", [&] {
        trace = makeTrace(w, qps, n, seed);
    });
    out.trace_fingerprint = traceFingerprint(trace);
    serving::EngineConfig config = engineConfig(w);
    config.record_iterations = probe != nullptr && probe->recordIterations();
    std::unique_ptr<serving::Engine> owner;
    const double construct_s = timeCall(probe, "engine.construct", [&] {
        owner = std::make_unique<serving::Engine>(config);
    });
    serving::Engine &engine = *owner;
    out.setup_s = gen_s + construct_s;
    if (probe != nullptr) {
        probe->attach(trace);
    }
    const std::vector<serving::Engine *> engines = {&engine};
    const auto step = [&] {
        if (probe == nullptr) {
            engine.stepRun();
            return;
        }
        timeCall(probe, "engine.step", [&] { engine.stepRun(); });
        probe->sampleKv(engine.backend());
    };

    const WallClock::time_point serve_start = WallClock::now();
    engine.beginOnline(trace.size());
    out.sent = static_cast<i64>(trace.size());
    for (Request &request : trace) {
        if (probe != nullptr) {
            probe->beginArrival(engines);
        }
        while (engine.runActive() &&
               engine.nextEventNs() < request.arrival_ns) {
            step();
        }
        if (probe == nullptr) {
            out.rejected += engine.submitOnline(std::move(request)).isOk()
                                ? 0
                                : 1;
            continue;
        }
        Status status;
        timeCall(probe, "engine.submit", [&] {
            status = engine.submitOnline(std::move(request));
        });
        out.rejected += status.isOk() ? 0 : 1;
        probe->sampleKv(engine.backend());
        probe->endArrival();
    }
    const WallClock::time_point drain_start = WallClock::now();
    engine.closeOnline();
    while (engine.runActive()) {
        step();
    }
    serving::RunReport report;
    timeCall(probe, "engine.finalize", [&] { report = engine.endRun(); });
    const WallClock::time_point serve_end = WallClock::now();
    out.serve_s = secondsBetween(serve_start, serve_end);

    collectReport(report, out);
    checkAudit(engine, "engine", out);
    if (probe != nullptr) {
        probe->addVattnCounters(engine);
        probe->addClusterStats(1.0, 1.0, 1.0);
        probe->finish(gen_s, construct_s,
                      secondsBetween(drain_start, serve_end), report,
                      {&report}, out.errors);
    }
    return out;
}

RungResult
serveFleet(const Workload &w, double qps, int n, u64 seed,
           RungProbe *probe, std::string *execution)
{
    RungResult out;
    std::vector<Request> trace;
    const double gen_s = timeCall(probe, "workload.gen", [&] {
        trace = makeTrace(w, qps, n, seed);
    });
    out.trace_fingerprint = traceFingerprint(trace);
    std::unique_ptr<serving::ServingCluster> owner;
    const double construct_s = timeCall(probe, "cluster.construct", [&] {
        owner = std::make_unique<serving::ServingCluster>(fleetConfig(
            w, probe != nullptr && probe->recordIterations()));
    });
    serving::ServingCluster &cluster = *owner;
    out.setup_s = gen_s + construct_s;
    *execution = serving::toString(cluster.resolvedExecution());
    if (probe != nullptr) {
        probe->attach(trace);
    }
    std::vector<serving::Engine *> engines;
    for (int r = 0; r < cluster.numReplicas(); ++r) {
        engines.push_back(&cluster.replica(r));
    }

    const WallClock::time_point serve_start = WallClock::now();
    serving::OnlineOptions options;
    options.routing = serving::RoutingMode::kLive;
    options.migration = true;
    options.expected_requests = trace.size();
    cluster.start(options);
    out.sent = static_cast<i64>(trace.size());
    for (Request &request : trace) {
        if (probe == nullptr) {
            out.rejected += cluster.submit(std::move(request)).isOk() ? 0 : 1;
            continue;
        }
        probe->beginArrival(engines);
        Status status;
        timeCall(probe, "cluster.submit", [&] {
            status = cluster.submit(std::move(request));
        });
        out.rejected += status.isOk() ? 0 : 1;
        for (serving::Engine *engine : engines) {
            probe->sampleKv(engine->backend());
        }
        probe->endArrival();
    }
    serving::ClusterReport report;
    const double drain_s = timeCall(probe, "cluster.shutdown",
                                    [&] { report = cluster.shutdown(); });
    out.serve_s = secondsBetween(serve_start, WallClock::now());

    collectReport(report.merged, out);
    for (int r = 0; r < cluster.numReplicas(); ++r) {
        checkAudit(cluster.replica(r), "replica " + std::to_string(r), out);
    }
    if (probe != nullptr) {
        std::vector<const serving::RunReport *> replicas;
        for (const serving::RunReport &r : report.replicas) {
            replicas.push_back(&r);
        }
        for (serving::Engine *engine : engines) {
            probe->addVattnCounters(*engine);
        }
        probe->addClusterStats(report.request_imbalance,
                               report.busy_imbalance, report.jain_fairness);
        probe->finish(gen_s, construct_s, drain_s, report.merged, replicas,
                      out.errors);
    }
    return out;
}

// ---- Rungs, traces and pooling ---------------------------------------------

struct Options
{
    const Workload *workload = nullptr;
    u64 seed = 1;
    double seconds = 0;
    std::string trace_path;
    bool quick = false;
};

/** Independent traces per rung: pooling them is what steadies the
 *  modeled metrics across seeds. */
constexpr int kTracesPerRung = 4;

/** The ref rung serves this many times more traces than the others: its
 *  tail latencies are the headline metrics and need the samples. */
constexpr int kRefTraceFactor = 4;

/** Sub-seed index of the first wall-only trace (clear of modeled ones). */
constexpr int kWallOnlyTraceBase = 1 << 20;

/** The rates and sizes one run serves. */
struct Plan
{
    std::vector<double> ladder;
    std::size_t ref = 0;
    std::size_t top = 0;
    int per_trace = 0;  ///< requests per trace
    int traces = 0;     ///< traces per rung
    int ref_traces = 0; ///< traces at the ref rung

    int
    tracesAt(std::size_t rung) const
    {
        return rung == ref ? ref_traces : traces;
    }
};

Plan
makePlan(const Options &opt)
{
    const Workload &w = *opt.workload;
    Plan plan;
    if (opt.quick) {
        // Smoke size: the ref and top rungs, one trace of a tenth of
        // the requests each.
        plan.ladder = {w.ladder[w.ref], w.ladder.back()};
        plan.ref = 0;
        plan.top = 1;
        plan.per_trace = w.requests / 10;
        plan.traces = 1;
        plan.ref_traces = 1;
    } else {
        plan.ladder = w.ladder;
        plan.ref = w.ref;
        plan.top = w.ladder.size() - 1;
        plan.per_trace = w.requests / kTracesPerRung;
        plan.traces = kTracesPerRung;
        plan.ref_traces = kTracesPerRung * kRefTraceFactor;
    }
    return plan;
}

/** Serve trace @p trace (its sub-seed index) of rung @p rung; traced
 *  when @p tracing is set. */
RungResult
serveRung(const Options &opt, const Plan &plan, std::size_t rung, int trace,
          Tracing *tracing, std::string *execution)
{
    const Workload &w = *opt.workload;
    const double qps = plan.ladder[rung];
    const u64 seed = traceSeed(opt.seed, trace);
    const auto serve = [&](RungProbe *probe) {
        return w.kind == Kind::kFleet
                   ? serveFleet(w, qps, plan.per_trace, seed, probe,
                                execution)
                   : serveEngine(w, qps, plan.per_trace, seed, probe);
    };
    if (tracing == nullptr) {
        return serve(nullptr);
    }
    char label[64];
    std::snprintf(label, sizeof(label), "rung %g QPS", qps);
    ModelLayers *model = rung == plan.ref   ? &tracing->ref
                         : rung == plan.top ? &tracing->top
                                            : nullptr;
    // Spans for the first trace of the ref and top rungs only.
    SpanLog *spans = trace == 0 && model != nullptr ? &tracing->spans
                                                    : nullptr;
    const int pid = 100 + static_cast<int>(rung);
    if (spans != nullptr) {
        spans->nameProcess(pid, std::string("virtual time: ") + w.name +
                                    " " + label);
    }
    const WallClock::time_point start = WallClock::now();
    RungProbe probe(tracing->wall, rung, model, spans, pid);
    RungResult result = serve(&probe);
    probe.closeRung(label, start);
    return result;
}

/** One rung's numbers, pooled over its traces. */
struct RungSummary
{
    double qps = 0;
    i64 sent = 0;
    i64 finished = 0;
    i64 failed = 0; ///< dropped + shed + rejected
    i64 slo_met = 0;
    i64 decode_tokens = 0;
    double makespan_s = 0;
    u64 ttft_n = 0;
    u64 tbt_n = 0;
    double ttft_p50_s = 0;
    double ttft_p90_s = 0;
    double ttft_p99_s = 0;
    double tbt_p50_s = 0;
    double tbt_p99_s = 0;

    /** Requests that finished meeting both deadlines, over those sent
     *  (dropped, shed and rejected requests count as misses). */
    double
    goodput() const
    {
        return ratio(static_cast<double>(slo_met),
                     static_cast<double>(sent));
    }

    double
    outTokPerS() const
    {
        return ratio(static_cast<double>(decode_tokens), makespan_s);
    }
};

/** Accumulates one rung's traces; only the summary outlives the rung. */
class RungPool
{
  public:
    explicit RungPool(double qps) { sum_.qps = qps; }

    void
    add(const RungResult &r)
    {
        sum_.sent += r.sent;
        sum_.finished += r.finished;
        sum_.failed += r.dropped + r.shed + r.rejected;
        sum_.slo_met += r.slo_met;
        sum_.decode_tokens += r.decode_tokens;
        sum_.makespan_s += r.makespan_s;
        ttft_.merge(r.ttft_s);
        tbt_.merge(r.tbt_s);
    }

    RungSummary
    summary() const
    {
        RungSummary s = sum_;
        s.ttft_n = ttft_.count();
        s.tbt_n = tbt_.count();
        s.ttft_p50_s = ttft_.quantile(0.50);
        s.ttft_p90_s = ttft_.quantile(0.90);
        s.ttft_p99_s = ttft_.quantile(0.99);
        s.tbt_p50_s = tbt_.quantile(0.50);
        s.tbt_p99_s = tbt_.quantile(0.99);
        return s;
    }

  private:
    RungSummary sum_;
    Dist ttft_;
    Dist tbt_;
};

constexpr double kGoodputTarget = 0.90;

/**
 * Highest offered rate at which goodput stays >= 0.90 on that rung and
 * every lower one, interpolated linearly between the last passing and
 * the first failing rung (continuous, so a small change moves it).
 */
double
capacityQps(const std::vector<RungSummary> &rungs)
{
    for (std::size_t i = 0; i < rungs.size(); ++i) {
        const double g1 = rungs[i].goodput();
        if (g1 >= kGoodputTarget) {
            continue;
        }
        if (i == 0) {
            return rungs[0].qps * g1 / kGoodputTarget;
        }
        const double g0 = rungs[i - 1].goodput();
        return rungs[i - 1].qps + (rungs[i].qps - rungs[i - 1].qps) *
                                      (g0 - kGoodputTarget) / (g0 - g1);
    }
    return rungs.back().qps;
}

/** The ladder rung capacityQps interpolates from (0 = below ladder). */
double
capacityRungQps(const std::vector<RungSummary> &rungs)
{
    double last = 0;
    for (const RungSummary &rung : rungs) {
        if (rung.goodput() < kGoodputTarget) {
            break;
        }
        last = rung.qps;
    }
    return last;
}

/** Σ over rungs of the median over that rung's traces. */
double
sumOfMedians(const std::vector<std::vector<double>> &per_rung)
{
    double sum = 0;
    for (const std::vector<double> &samples : per_rung) {
        sum += median(samples);
    }
    return sum;
}

/**
 * Simulated requests per wall second over every trace served, where a
 * rung's serving time counts as its trace count times its median trace:
 * a burst of host noise that slows a few traces moves nothing.
 */
double
simReqPerWallS(const std::vector<std::vector<double>> &serve_s,
               int per_trace)
{
    double traces = 0;
    double seconds = 0;
    for (const std::vector<double> &samples : serve_s) {
        traces += static_cast<double>(samples.size());
        seconds += static_cast<double>(samples.size()) * median(samples);
    }
    return ratio(traces * per_trace, seconds);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Modeled layer metrics of one pooled rung, suffixed .ref / .top. */
void
modelLayerMetrics(const ModelLayers &m, const std::string &suffix,
                  std::vector<Metric> &out)
{
    const auto add = [&](const std::string &name, double value,
                         const char *unit) {
        out.push_back({name + suffix, value, unit});
    };
    const double traces = std::max(1, m.traces);
    add("scheduler.queue_wait_s_p50", m.queue_wait_s.quantile(0.5), "s");
    add("scheduler.queue_wait_s_p99", m.queue_wait_s.quantile(0.99), "s");
    add("scheduler.batch_mean",
        ratio(m.batch_sum, static_cast<double>(m.iterations)), "requests");
    add("scheduler.chunk_tokens_mean",
        ratio(m.chunk_tokens_sum, static_cast<double>(m.chunk_iterations)),
        "tokens");
    add("scheduler.mixed_frac",
        ratio(static_cast<double>(m.mixed_iterations),
              static_cast<double>(m.iterations)),
        "fraction");
    add("engine.iter_ms_p50", m.iter_ms.quantile(0.5), "ms");
    add("engine.iter_ms_p99", m.iter_ms.quantile(0.99), "ms");
    add("engine.busy_frac", ratio(m.busy_ns, m.replica_ns), "fraction");
    add("kv.util_mean",
        ratio(m.kv_util_sum, static_cast<double>(m.kv_util_samples)),
        "fraction");
    add("kv.util_peak", m.kv_util_peak, "fraction");
    add("kv.preemptions", static_cast<double>(m.preemptions), "count");
    add("kv.dropped", static_cast<double>(m.dropped), "count");
    add("kv.mem_critical_frac", ratio(m.mem_critical_ns, m.busy_ns),
        "fraction");
    add("kv.swap_outs", static_cast<double>(m.swap_outs), "count");
    add("kv.swap_stall_frac", ratio(m.swap_stall_ns, m.busy_ns),
        "fraction");
    add("prefix.hit_rate",
        ratio(static_cast<double>(m.prefix_hits),
              static_cast<double>(m.prefix_lookups)),
        "fraction");
    add("prefix.saved_frac",
        ratio(static_cast<double>(m.prefill_saved),
              static_cast<double>(m.prompt_tokens)),
        "fraction");
    add("core.sync_handles", static_cast<double>(m.sync_handles), "count");
    add("core.background_handles",
        static_cast<double>(m.background_handles), "count");
    add("core.reclaimed_handles", static_cast<double>(m.reclaimed_handles),
        "count");
    add("core.reused_cached_slots",
        static_cast<double>(m.reused_cached_slots), "count");
    add("cuvmm.map_calls", static_cast<double>(m.map_calls), "count");
    add("cuvmm.unmap_calls", static_cast<double>(m.unmap_calls), "count");
    add("cuvmm.create_calls", static_cast<double>(m.create_calls), "count");
    add("perf.comm_frac", ratio(m.comm_ns, m.busy_ns), "fraction");
    add("cluster.request_imbalance", m.request_imbalance / traces, "ratio");
    add("cluster.busy_imbalance", m.busy_imbalance / traces, "ratio");
    add("cluster.jain_fairness", m.jain_fairness / traces, "index");
    add("cluster.migrations", static_cast<double>(m.migrations), "count");
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("\n%s\n", title);
    for (const Metric &m : metrics) {
        std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

/** The single machine-readable result line (always the last line). */
void
printResult(bool correct, i64 attempted, i64 failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: bench_serving --workload chat|longctx|prefix|fleet "
                 "[--seed N] [--seconds S] [--trace FILE] [--quick]\n");
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--quick") {
            opt.quick = true;
        } else if (arg == "--workload" && has_value) {
            const std::string name = argv[++i];
            for (const Workload &w : workloads()) {
                if (name == w.name) {
                    opt.workload = &w;
                }
            }
            if (opt.workload == nullptr) {
                std::fprintf(stderr, "unknown workload '%s'\n",
                             name.c_str());
                return false;
            }
        } else if (arg == "--seed" && has_value) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            opt.trace_path = argv[++i];
        } else {
            std::fprintf(stderr, "bad argument '%s'\n", arg.c_str());
            return false;
        }
    }
    return opt.workload != nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage();
        return 2;
    }
    opt.quick = opt.quick || smokeMode();
    if (opt.quick) {
        opt.seconds = 0; // smoke size: no wall-only passes either
    }
    const Workload &w = *opt.workload;
    const Plan plan = makePlan(opt);
    const std::size_t num_rungs = plan.ladder.size();
    const WallClock::time_point origin = WallClock::now();

    std::string ladder;
    for (std::size_t i = 0; i < num_rungs; ++i) {
        char rung[32];
        std::snprintf(rung, sizeof(rung), i == plan.ref ? "%s[%g]" : "%s%g",
                      i == 0 ? "" : " ", plan.ladder[i]);
        ladder += rung;
    }
    banner("Serving benchmark: " + std::string(w.name),
           "open-loop SLO capacity and simulator speed");
    std::printf("seed %llu%s: ladder (QPS, [ref]) %s; %d traces of %d "
                "requests per rung, %d at the ref rung; SLO TTFT %g s / "
                "TBT %g s\n",
                static_cast<unsigned long long>(opt.seed),
                opt.quick ? " (quick)" : "", ladder.c_str(), plan.traces,
                plan.per_trace, plan.ref_traces, w.ttft_slo_s, w.tbt_slo_s);
    std::printf("load generator: open loop, single-threaded, in virtual "
                "time; requests are submitted at their scheduled arrival, "
                "so generator lag is 0 s by construction\n");
    std::fflush(stdout);

    std::vector<std::string> errors;
    std::string execution = "-";
    i64 attempted = 0;
    i64 failed = 0;
    std::vector<std::vector<double>> setup_s(num_rungs);
    std::vector<std::vector<double>> serve_s(num_rungs);
    const auto account = [&](const RungResult &r, const char *what) {
        attempted += r.sent;
        failed += r.dropped + r.shed + r.rejected;
        for (const std::string &e : r.errors) {
            errors.push_back(std::string(what) + ": " + e);
        }
    };
    const auto addWall = [&](std::size_t rung, const RungResult &r) {
        setup_s[rung].push_back(r.setup_s);
        serve_s[rung].push_back(r.serve_s);
    };

    // ---- Modeled sweep: every trace of every rung, rung by rung --------
    std::vector<RungSummary> rungs;
    std::vector<std::vector<u64>> fingerprints(num_rungs);
    Fingerprint inputs;
    double modeled_serve_s = 0;
    double pass_estimate_s = 0; ///< wall of one trace per rung
    i64 modeled_iterations = 0;
    i64 modeled_tokens = 0;
    for (std::size_t i = 0; i < num_rungs; ++i) {
        const WallClock::time_point start = WallClock::now();
        RungPool pool(plan.ladder[i]);
        double rung_serve_s = 0;
        for (int t = 0; t < plan.tracesAt(i); ++t) {
            const RungResult r =
                serveRung(opt, plan, i, t, nullptr, &execution);
            account(r, "untraced");
            addWall(i, r);
            fingerprints[i].push_back(r.fingerprint);
            inputs.add(r.trace_fingerprint);
            rung_serve_s += r.serve_s;
            modeled_iterations += r.iterations;
            modeled_tokens += r.decode_tokens;
            pool.add(r);
        }
        rungs.push_back(pool.summary());
        modeled_serve_s += rung_serve_s;
        pass_estimate_s +=
            secondsBetween(start, WallClock::now()) / plan.tracesAt(i);
        std::printf("rung %g QPS: %d traces, serving %.3f s\n",
                    plan.ladder[i], plan.tracesAt(i), rung_serve_s);
        std::fflush(stdout);
    }

    // ---- Wall-only passes: fresh traces while --seconds allows ---------
    // They feed only the wall metrics, which then average over more
    // traces; the modeled metrics stay a pure function of the seed.
    int wall_only = 0;
    double last_pass_s = pass_estimate_s;
    while (secondsBetween(origin, WallClock::now()) + last_pass_s <=
           opt.seconds) {
        const WallClock::time_point start = WallClock::now();
        for (std::size_t i = 0; i < num_rungs; ++i) {
            const RungResult r =
                serveRung(opt, plan, i, kWallOnlyTraceBase + wall_only,
                          nullptr, &execution);
            account(r, "wall-only");
            addWall(i, r);
        }
        ++wall_only;
        last_pass_s = secondsBetween(start, WallClock::now());
    }
    std::printf("wall-only passes: %d\n", wall_only);

    const RungSummary &ref = rungs[plan.ref];
    const RungSummary &top = rungs[plan.top];
    i64 sent = 0;
    i64 served = 0;
    for (const RungSummary &rung : rungs) {
        sent += rung.sent;
        served += rung.finished;
    }
    // p99 needs at least ten samples beyond it.
    if (!opt.quick && (ref.ttft_n < 1000 || ref.tbt_n < 1000)) {
        errors.push_back("too few samples at the ref rung for p99");
    }

    const std::vector<Metric> e2e = {
        {"ttft_p50_s", ref.ttft_p50_s, "s"},
        {"ttft_p90_s", ref.ttft_p90_s, "s"},
        {"tbt_p50_s", ref.tbt_p50_s, "s"},
        {"tbt_p99_s", ref.tbt_p99_s, "s"},
        {"goodput", ref.goodput(), "fraction"},
        {"capacity_qps", capacityQps(rungs), "req/s"},
        {"peak_out_tok_per_s", top.outTokPerS(), "tok/s"},
        {"served_frac",
         ratio(static_cast<double>(served), static_cast<double>(sent)),
         "fraction"},
        {"sim_req_per_wall_s", simReqPerWallS(serve_s, plan.per_trace),
         "req/s"},
        {"setup_s", sumOfMedians(setup_s), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };

    JsonReport json("serving_" + std::string(w.name));
    Table table({"QPS", "sent", "ok", "failed", "goodput", "TTFT p50 s",
                 "TTFT p99 s", "TTFT n", "TBT p50 s", "TBT p99 s", "TBT n",
                 "out tok/s"});
    for (const RungSummary &rung : rungs) {
        table.addRow({Table::num(rung.qps, 2), Table::integer(rung.sent),
                      Table::integer(rung.finished),
                      Table::integer(rung.failed),
                      Table::num(rung.goodput(), 3),
                      Table::num(rung.ttft_p50_s, 3),
                      Table::num(rung.ttft_p99_s, 3),
                      Table::integer(static_cast<long long>(rung.ttft_n)),
                      Table::num(rung.tbt_p50_s, 4),
                      Table::num(rung.tbt_p99_s, 4),
                      Table::integer(static_cast<long long>(rung.tbt_n)),
                      Table::num(rung.outTokPerS(), 0)});
    }
    std::printf("\n");
    json.printTable(std::string(w.name) + ": per rung, pooled over its " +
                        "traces",
                    table);
    std::printf("capacity: %.4g QPS interpolated (last ladder rung meeting "
                "goodput >= 0.90: %g QPS); cluster execution: %s\n",
                capacityQps(rungs), capacityRungQps(rungs),
                execution.c_str());
    std::printf("input fingerprint: %016llx\n",
                static_cast<unsigned long long>(inputs.hash));
    printMetrics("end-to-end metrics (name value unit)", e2e);
    json.metric("seed", static_cast<i64>(opt.seed));
    json.metric("wall_only_passes", static_cast<i64>(wall_only));
    json.metric("ttft_p99_s", ref.ttft_p99_s);
    json.metric("cluster_execution", execution);
    for (const Metric &m : e2e) {
        json.metric(m.name, m.value);
    }

    // ---- Traced replay of the modeled sweep: per-layer metrics ---------
    std::vector<Metric> layers;
    if (!opt.trace_path.empty()) {
        Tracing tracing(origin, num_rungs);
        double traced_serve_s = 0;
        for (std::size_t i = 0; i < num_rungs; ++i) {
            for (int t = 0; t < plan.tracesAt(i); ++t) {
                const RungResult r =
                    serveRung(opt, plan, i, t, &tracing, &execution);
                account(r, "traced");
                traced_serve_s += r.serve_s;
                if (r.fingerprint != fingerprints[i][t]) {
                    errors.push_back(
                        "tracing perturbed the simulation: rung " +
                        std::to_string(plan.ladder[i]) + ", trace " +
                        std::to_string(t));
                }
            }
        }
        if (!tracing.spans.write(opt.trace_path)) {
            errors.push_back("cannot write trace " + opt.trace_path);
        }
        // Per-iteration and per-token cost come from the untraced
        // sweep, which carries no instrumentation.
        const WallLayers &wall = tracing.wall;
        layers = {
            {"workload.gen_wall_s", sumOfMedians(wall.gen_s), "s"},
            {"serving.construct_wall_s", sumOfMedians(wall.construct_s),
             "s"},
            {"serving.drain_wall_s", sumOfMedians(wall.drain_s), "s"},
            {"serving.arrival_wall_us_p50", wall.arrival_us.quantile(0.5),
             "us"},
            {"serving.arrival_wall_us_p99", wall.arrival_us.quantile(0.99),
             "us"},
            {"serving.wall_ns_per_iteration",
             1e9 * ratio(modeled_serve_s,
                         static_cast<double>(modeled_iterations)),
             "ns"},
            {"serving.wall_ns_per_token",
             1e9 *
                 ratio(modeled_serve_s, static_cast<double>(modeled_tokens)),
             "ns"},
            {"router.live_load_wall_ns",
             ratio(wall.live_load_ns,
                   static_cast<double>(wall.live_load_calls)),
             "ns"},
            {"trace.overhead_frac",
             ratio(traced_serve_s, modeled_serve_s) - 1.0, "fraction"},
        };
        modelLayerMetrics(tracing.ref, ".ref", layers);
        modelLayerMetrics(tracing.top, ".top", layers);
        printMetrics("per-layer metrics (name value unit)", layers);
        std::printf("trace: %zu spans written to %s (Chrome Trace Event "
                    "JSON; open in https://ui.perfetto.dev)\n",
                    tracing.spans.size(), opt.trace_path.c_str());
        for (const Metric &m : layers) {
            json.metric(m.name, m.value);
        }
    }

    std::printf("\nchecks: ");
    if (errors.empty()) {
        std::printf("ok (conservation, audits%s)\n",
                    opt.trace_path.empty()
                        ? ""
                        : ", on_finish once, traced == untraced");
    } else {
        std::printf("%zu FAILED\n", errors.size());
        for (const std::string &e : errors) {
            std::printf("  FAIL %s\n", e.c_str());
        }
    }
    json.metric("correct", static_cast<i64>(errors.empty() ? 1 : 0));
    json.write();
    printResult(errors.empty(), attempted, failed,
                opt.trace_path.empty() ? e2e : layers);
    return errors.empty() ? 0 : 1;
}
