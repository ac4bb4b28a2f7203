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
 *  - apply() runs one mutation on every worker, compares each
 *    follower's result with worker 0's (operator==) and panics with
 *    the op name and the diverging worker index — a divergence is a
 *    determinism bug, never an outcome;
 *  - lead() answers symmetric queries, which lockstep makes identical
 *    on every worker by construction;
 *  - auditInto() runs every worker's own audit, then pairs each
 *    follower with worker 0 (Worker::auditAgainstLead), reporting
 *    drift instead of panicking so corruption can be localized.
 *
 * Workers are built in place (a runtime owning a simulated GPU and
 * driver cannot move) and never relocate. Allocation-free per op: ops
 * are template callables invoked in place (no std::function), because
 * engine steps call apply() every iteration.
 */

#ifndef VATTN_COMMON_LOCKSTEP_HH
#define VATTN_COMMON_LOCKSTEP_HH

#include <cstddef>
#include <deque>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/audit.hh"
#include "common/logging.hh"

namespace vattn
{

/** A fixed set of workers driven in lockstep; worker 0 leads. */
template <typename Worker>
class Lockstep
{
  public:
    /** Take ownership of ready-made (movable) workers. */
    explicit Lockstep(std::vector<Worker> workers)
        : workers_(std::make_move_iterator(workers.begin()),
                   std::make_move_iterator(workers.end()))
    {
        panic_if(workers_.empty(), "Lockstep needs >= 1 worker");
    }

    /** Build @p num_workers workers in place, worker w as
     *  Worker(w, args...). */
    template <typename... Args>
    Lockstep(std::in_place_t, int num_workers, const Args &...args)
    {
        panic_if(num_workers <= 0, "Lockstep needs >= 1 worker");
        for (int w = 0; w < num_workers; ++w) {
            workers_.emplace_back(w, args...);
        }
    }

    int size() const { return static_cast<int>(workers_.size()); }

    Worker &
    worker(int w)
    {
        panic_if(w < 0 || w >= size(), "bad worker index ", w);
        return workers_[static_cast<std::size_t>(w)];
    }

    const Worker &
    worker(int w) const
    {
        panic_if(w < 0 || w >= size(), "bad worker index ", w);
        return workers_[static_cast<std::size_t>(w)];
    }

    /** Worker 0, which answers the group's symmetric queries. */
    Worker &lead() { return workers_.front(); }
    const Worker &lead() const { return workers_.front(); }

    auto begin() const { return workers_.begin(); }
    auto end() const { return workers_.end(); }

    /**
     * Run @p op on every worker in index order and return worker 0's
     * result; panics naming @p op_name and the worker if a follower's
     * result differs from worker 0's. A void @p op has nothing to
     * compare and just runs on every worker.
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

    /** Call @p fn(w, worker(w), worker(0)) for every follower w. */
    template <typename Fn>
    void
    forEachFollower(Fn &&fn) const
    {
        for (std::size_t w = 1; w < workers_.size(); ++w) {
            fn(w, workers_[w], workers_.front());
        }
    }

    /** Every worker's own auditInto(), then the cross-worker check. */
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
    std::deque<Worker> workers_;
};

} // namespace vattn

#endif // VATTN_COMMON_LOCKSTEP_HH
