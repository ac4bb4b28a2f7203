/**
 * @file
 * Lockstep replication of deterministic per-worker state (§5.3 tensor
 * parallelism). Every TP worker receives identical control inputs, so
 * every worker must end in an identical state: the paper describes a
 * single worker "for simplicity; all workers behave the same".
 * Lockstep<Worker> is the one place that rule is enforced for both KV
 * backends, which drive it the same way — each MemoryBackend op is one
 * apply() call: PagedBackend over its block pools, VAttentionBackend
 * over core::WorkerGroup's vAttention runtimes (WorkerGroup::apply
 * hands each worker's runtime to the op):
 *
 *  - apply() runs one mutation on every worker, compares each
 *    follower's result with worker 0's (operator==) and panics with
 *    the op name and the diverging worker index — a divergence is a
 *    determinism bug, never an outcome;
 *  - lead() answers symmetric queries, which lockstep makes identical
 *    on every worker by construction;
 *  - forEachFollower() pairs each follower with worker 0 for the
 *    owners' cross-worker audits, which report drift instead of
 *    panicking so corruption can be localized.
 *
 * Header-only and allocation-free: ops are template callables invoked
 * in place (no std::function), because engine steps on TP > 1 replicas
 * call apply() every iteration.
 */

#ifndef VATTN_COMMON_LOCKSTEP_HH
#define VATTN_COMMON_LOCKSTEP_HH

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace vattn
{

/** A fixed set of workers driven in lockstep; worker 0 leads. */
template <typename Worker>
class Lockstep
{
  public:
    explicit Lockstep(std::vector<Worker> workers)
        : workers_(std::move(workers))
    {
        panic_if(workers_.empty(), "Lockstep needs >= 1 worker");
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
    Worker &lead() { return workers_[0]; }
    const Worker &lead() const { return workers_[0]; }

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
        if constexpr (std::is_void_v<decltype(op(workers_[0]))>) {
            for (Worker &worker : workers_) {
                op(worker);
            }
        } else {
            auto first = op(workers_[0]);
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
            fn(w, workers_[w], workers_[0]);
        }
    }

  private:
    std::vector<Worker> workers_;
};

} // namespace vattn

#endif // VATTN_COMMON_LOCKSTEP_HH
