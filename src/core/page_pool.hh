/**
 * @file
 * Physical page-group pool. vAttention pre-allocates physical memory
 * handles at initialization (§5.3.1) so that creating physical memory
 * (cuMemCreate / vMemCreate — a slow OS round-trip) never happens in
 * the serving critical path; at runtime only (un)map operations touch
 * the driver. The pool hands handles to the KV allocator and takes them
 * back when groups are reclaimed.
 */

#ifndef VATTN_CORE_PAGE_POOL_HH
#define VATTN_CORE_PAGE_POOL_HH

#include <unordered_map>
#include <vector>

#include "common/audit.hh"
#include "common/status.hh"
#include "common/types.hh"
#include "cuvmm/driver.hh"

namespace vattn::core
{

/** Pool of same-sized physical page-group handles. */
class PagePool
{
  public:
    /**
     * @param driver driver owning the physical memory
     * @param group page-group size for every handle
     * @param budget_bytes maximum physical bytes the pool may own
     * @param precreate create all handles now (init-time, off the
     *        critical path) instead of lazily on first acquire
     * @param host_budget_bytes pinned host memory the pool may commit
     *        for the KV swap tier (0 disables the tier)
     */
    PagePool(cuvmm::Driver &driver, PageGroup group, u64 budget_bytes,
             bool precreate = true, u64 host_budget_bytes = 0);
    ~PagePool();

    PagePool(const PagePool &) = delete;
    PagePool &operator=(const PagePool &) = delete;

    /** Take a handle out of the pool (refcount 1). Fails when the
     *  budget is fully handed out (the caller may then reclaim cached
     *  groups). */
    Result<cuvmm::MemHandle> acquire();

    /**
     * Add a reference to a handed-out handle (prefix sharing maps the
     * same physical group into several requests' virtual ranges). The
     * handle stays in use until every reference is dropped.
     */
    void addRef(cuvmm::MemHandle handle);

    /** References held on a handed-out handle (0 = not handed out). */
    int refCount(cuvmm::MemHandle handle) const;

    /** Drop one of several references (the handle remains mapped
     *  elsewhere; panics when it is the last reference — use
     *  release/releaseDestroyed for that). */
    void dropShared(cuvmm::MemHandle handle);

    /** Return a handle to the pool (last reference). */
    void release(cuvmm::MemHandle handle);

    /**
     * Account for a handed-out handle that was destroyed instead of
     * returned (the sub-2MB reclaim path uses vMemRelease, which fuses
     * unmap + free, so the handle ceases to exist; the budget slot it
     * occupied becomes creatable again). Last reference only.
     */
    void releaseDestroyed(cuvmm::MemHandle handle);

    /** Groups still obtainable: pooled handles + creatable budget. */
    i64
    availableGroups() const
    {
        return totalGroups() - groupsInUse();
    }

    PageGroup group() const { return group_; }
    u64 groupBytes() const { return bytes(group_); }
    u64 budgetBytes() const { return budget_bytes_; }

    /** Handles currently in the pool (not handed out). */
    i64 freeGroups() const { return static_cast<i64>(free_.size()); }
    /** Handles handed out to the allocator. */
    i64 groupsInUse() const { return groups_in_use_; }
    /** Total groups the budget allows. */
    i64 totalGroups() const { return total_groups_; }
    /** Device handles created so far (== free + in-use). */
    i64 createdGroups() const { return created_; }

    /**
     * Self-audit: handle conservation (free + in-use == created <=
     * total), refcount table shape (one entry >= 1 per handed-out
     * handle), and that every pooled/handed-out handle is live in the
     * driver at exactly the pool's group size.
     */
    void auditInto(audit::AuditReport &report) const;

    bool
    exhausted() const
    {
        return free_.empty() && created_ >= total_groups_;
    }

    // ---- Host page tier (KV swap) -----------------------------------
    //
    // Group-sized pinned host pages that hold swapped-out KV. Pages
    // are pooled after first use (page-locking is far more expensive
    // than the PCIe copy itself), so steady-state swap traffic pays
    // only copy time.

    /** Take one pinned host page (fails when the host budget is fully
     *  handed out, or the tier is disabled). */
    Result<cuvmm::MemHandle> acquireHost();

    /** Return a host page to the host free list. */
    void releaseHost(cuvmm::MemHandle handle);

    u64 hostBudgetBytes() const { return host_budget_bytes_; }
    /** Host pages created so far (== host free + host in-use). */
    i64 hostCreatedGroups() const { return host_created_; }
    /** Host pages currently holding swapped KV. */
    i64 hostGroupsInUse() const { return host_in_use_; }
    /** Host pages still obtainable right now. */
    i64
    hostGroupsAvailable() const
    {
        return host_total_groups_ - host_in_use_;
    }

  private:
    cuvmm::Driver &driver_;
    PageGroup group_;
    u64 budget_bytes_;
    i64 total_groups_;
    i64 created_ = 0;
    i64 groups_in_use_ = 0; ///< unique handles handed out
    std::vector<cuvmm::MemHandle> free_;
    /** Reference counts of handed-out handles. */
    std::unordered_map<cuvmm::MemHandle, int> refs_;
    // Host tier.
    u64 host_budget_bytes_;
    i64 host_total_groups_;
    i64 host_created_ = 0;
    i64 host_in_use_ = 0;
    std::vector<cuvmm::MemHandle> host_free_;
};

} // namespace vattn::core

#endif // VATTN_CORE_PAGE_POOL_HH
