/**
 * @file
 * Lockstep replication of deterministic per-worker state (§5.3 tensor
 * parallelism). Every TP worker receives identical control inputs, so
 * every worker must end in an identical state: the paper describes a
 * single worker "for simplicity; all workers behave the same".
 * Lockstep<Worker> is the one place that rule is enforced. The serving
 * layer's one KV adapter (serving/lockstep_backend.hh) drives both KV
 * runtimes through it — paged::PagedRuntime block pools and
 * core::WorkerGroup's vAttention workers alike — and each
 * MemoryBackend op is one apply() call:
 *
 *  - apply() runs one mutation on every built worker, compares each
 *    follower's result with worker 0's (operator==) and panics with
 *    the op name and the diverging worker index — a divergence is a
 *    determinism bug, never an outcome;
 *  - lead() answers symmetric queries, which lockstep makes identical
 *    on every worker by construction;
 *  - auditInto() runs every built worker's own audit, then pairs each
 *    follower with worker 0 (Worker::auditAgainstLead), reporting
 *    drift instead of panicking so corruption can be localized.
 *
 * Where followers are built. A group replicates fully (Replication::
 * kFull) or builds worker 0 alone (kLeadOnly). Since followers only
 * repeat the lead's work, a lead-only group is the same simulation for
 * 1/tp of the work: size() still reports the TP degree and
 * forRank(w) answers every rank with the lead, so a sum over ranks
 * reads tp x the lead's value. What a lead-only group gives up is the
 * check itself: no follower result to compare and no follower to
 * audit. The serving adapter picks lead-only for Release serving and
 * full replication for VATTN_AUDIT builds and the tests that reach
 * followers.
 *
 * Workers are built in place (a runtime owning a simulated GPU and
 * driver cannot move) and never relocate. Allocation-free per op: ops
 * are template callables invoked in place (no std::function), because
 * engine steps call apply() every iteration; a lead-only group's
 * follower loop has no iterations, so it adds no per-op branch.
 */

#ifndef VATTN_COMMON_LOCKSTEP_HH
#define VATTN_COMMON_LOCKSTEP_HH

#include <cstddef>
#include <deque>
#include <type_traits>
#include <utility>

#include "common/audit.hh"
#include "common/logging.hh"

namespace vattn
{

/** Which workers of a Lockstep group are built. */
enum class Replication
{
    /** Every worker; each op runs on all and followers are checked. */
    kFull,
    /** Worker 0 alone, standing for every rank of the group. */
    kLeadOnly,
};

/** A fixed set of workers driven in lockstep; worker 0 leads. */
template <typename Worker>
class Lockstep
{
  public:
    /** A group of @p num_workers workers, built in place as
     *  Worker(w, args...): every worker under kFull, worker 0 alone
     *  under kLeadOnly. */
    template <typename... Args>
    Lockstep(std::in_place_t, Replication replication, int num_workers,
             const Args &...args)
        : size_(num_workers)
    {
        panic_if(num_workers <= 0, "Lockstep needs >= 1 worker");
        const int built =
            replication == Replication::kFull ? num_workers : 1;
        for (int w = 0; w < built; ++w) {
            workers_.emplace_back(w, args...);
        }
    }

    /** The TP degree, whether or not the followers are built. */
    int size() const { return size_; }

    /** kLeadOnly iff followers exist but are not built (a one-worker
     *  group is fully replicated either way). */
    Replication
    replication() const
    {
        return static_cast<int>(workers_.size()) == size_
                   ? Replication::kFull
                   : Replication::kLeadOnly;
    }

    /** Worker @p w; panics if it is not built (a lead-only group's
     *  follower). */
    Worker &
    worker(int w)
    {
        return workers_[builtIndex(w)];
    }

    const Worker &
    worker(int w) const
    {
        return workers_[builtIndex(w)];
    }

    /** The worker standing for rank @p w: worker w itself when the
     *  group replicates fully, the lead otherwise (every rank's state
     *  equals the lead's by construction). */
    Worker &
    forRank(int w)
    {
        panic_if(w < 0 || w >= size(), "bad worker index ", w);
        return replication() == Replication::kFull
                   ? workers_[static_cast<std::size_t>(w)]
                   : workers_.front();
    }

    /** Worker 0, which answers the group's symmetric queries. */
    Worker &lead() { return workers_.front(); }
    const Worker &lead() const { return workers_.front(); }

    /**
     * Run @p op on every built worker in index order and return
     * worker 0's result; panics naming @p op_name and the worker if a
     * follower's result differs from worker 0's. A void @p op has
     * nothing to compare and just runs on every built worker.
     */
    template <typename Op>
    auto
    apply(const char *op_name, Op &&op)
    {
        if constexpr (std::is_void_v<decltype(op(workers_.front()))>) {
            for (Worker &worker : workers_) {
                op(worker);
            }
        } else {
            auto first = op(workers_.front());
            for (std::size_t w = 1; w < workers_.size(); ++w) {
                const auto other = op(workers_[w]);
                panic_if(!(other == first), "TP workers diverged in ",
                         op_name, ": worker ", w,
                         " disagrees with worker 0");
            }
            return first;
        }
    }

    /** Call @p fn(w, worker(w), worker(0)) for every built
     *  follower w. */
    template <typename Fn>
    void
    forEachFollower(Fn &&fn) const
    {
        for (std::size_t w = 1; w < workers_.size(); ++w) {
            fn(w, workers_[w], workers_.front());
        }
    }

    /** Every built worker's own auditInto(), then the cross-worker
     *  check. */
    void
    auditInto(audit::AuditReport &report) const
    {
        for (const Worker &worker : workers_) {
            worker.auditInto(report);
        }
        auditFollowersInto(report);
    }

    /**
     * The cross-worker half of auditInto: each follower compares its
     * state with worker 0's (Worker::auditAgainstLead) and records
     * the worker index and the quantity that drifted.
     */
    void
    auditFollowersInto(audit::AuditReport &report) const
    {
        forEachFollower([&](std::size_t w, const Worker &follower,
                            const Worker &lead) {
            follower.auditAgainstLead(lead, w, report);
        });
    }

  private:
    std::size_t
    builtIndex(int w) const
    {
        panic_if(w < 0 || w >= size(), "bad worker index ", w);
        panic_if(w >= static_cast<int>(workers_.size()), "worker ", w,
                 " is not built: in lead-only mode worker 0 stands for "
                 "all ",
                 size(), " TP ranks");
        return static_cast<std::size_t>(w);
    }

    /** The built workers: all size_ of them, or worker 0 alone. */
    std::deque<Worker> workers_;
    int size_;
};

} // namespace vattn

#endif // VATTN_COMMON_LOCKSTEP_HH
