#include "core/page_pool.hh"

#include "common/logging.hh"

namespace vattn::core
{

PagePool::PagePool(cuvmm::Driver &driver, PageGroup group,
                   u64 budget_bytes, bool precreate,
                   u64 host_budget_bytes)
    : driver_(driver), group_(group), budget_bytes_(budget_bytes),
      total_groups_(static_cast<i64>(budget_bytes / bytes(group))),
      host_budget_bytes_(host_budget_bytes),
      host_total_groups_(
          static_cast<i64>(host_budget_bytes / bytes(group)))
{
    fatal_if(total_groups_ <= 0,
             "page pool budget smaller than one page-group");
    if (precreate) {
        free_.reserve(static_cast<std::size_t>(total_groups_));
        while (created_ < total_groups_) {
            cuvmm::MemHandle handle = cuvmm::kInvalidHandle;
            const auto r = driver_.vMemCreate(&handle, group_);
            if (r != cuvmm::CuResult::kSuccess) {
                // Device memory ran out below the nominal budget
                // (some is owned by weights/activations); shrink.
                warn("page pool pre-creation stopped at ", created_,
                     " of ", total_groups_, " groups: ",
                     cuvmm::toString(r));
                total_groups_ = created_;
                break;
            }
            free_.push_back(handle);
            ++created_;
        }
    }
}

PagePool::~PagePool()
{
    for (cuvmm::MemHandle handle : free_) {
        driver_.vMemRelease(handle);
    }
    for (cuvmm::MemHandle handle : host_free_) {
        driver_.cuMemHostRelease(handle);
    }
}

Result<cuvmm::MemHandle>
PagePool::acquireHost()
{
    if (!host_free_.empty()) {
        const cuvmm::MemHandle handle = host_free_.back();
        host_free_.pop_back();
        ++host_in_use_;
        return handle;
    }
    if (host_created_ >= host_total_groups_) {
        return Result<cuvmm::MemHandle>(
            ErrorCode::kOutOfMemory,
            host_total_groups_ == 0 ? "host swap tier disabled"
                                    : "host swap budget exhausted");
    }
    cuvmm::MemHandle handle = cuvmm::kInvalidHandle;
    const auto r = driver_.cuMemHostCreate(&handle, bytes(group_));
    panic_if(r != cuvmm::CuResult::kSuccess,
             "pinned host allocation failed: ", cuvmm::toString(r));
    ++host_created_;
    ++host_in_use_;
    return handle;
}

void
PagePool::releaseHost(cuvmm::MemHandle handle)
{
    panic_if(host_in_use_ <= 0, "host release without acquire");
    --host_in_use_;
    host_free_.push_back(handle);
}

Result<cuvmm::MemHandle>
PagePool::acquire()
{
    if (!free_.empty()) {
        const cuvmm::MemHandle handle = free_.back();
        free_.pop_back();
        ++groups_in_use_;
        refs_[handle] = 1;
        return handle;
    }
    if (created_ >= total_groups_) {
        return Result<cuvmm::MemHandle>(ErrorCode::kOutOfMemory,
                                        "page pool budget exhausted");
    }
    cuvmm::MemHandle handle = cuvmm::kInvalidHandle;
    const auto r = driver_.vMemCreate(&handle, group_);
    if (r != cuvmm::CuResult::kSuccess) {
        total_groups_ = created_; // device genuinely out of memory
        return Result<cuvmm::MemHandle>(ErrorCode::kOutOfMemory,
                                        "device out of physical memory");
    }
    ++created_;
    ++groups_in_use_;
    refs_[handle] = 1;
    return handle;
}

void
PagePool::auditInto(audit::AuditReport &report) const
{
    report.check(created_ <= total_groups_,
                 "page_pool: created ", created_,
                 " groups but the budget allows only ", total_groups_);
    report.check(freeGroups() + groups_in_use_ == created_,
                 "page_pool: ", freeGroups(), " free + ",
                 groups_in_use_, " in-use groups != ", created_,
                 " created (a handle leaked out of the pool)");
    i64 handed_out = 0;
    for (const auto &[handle, count] : refs_) {
        (void)handle;
        if (count > 0) {
            ++handed_out;
        }
    }
    report.check(handed_out == groups_in_use_,
                 "page_pool: ", handed_out,
                 " positive refcount entries but ", groups_in_use_,
                 " groups handed out");
    for (const auto &[handle, count] : refs_) {
        if (count < 1) {
            continue; // parked entry: handle is back in the free pool
        }
        if (driver_.handleSize(handle) != groupBytes()) {
            report.fail("page_pool: handed-out handle ", handle,
                        " is ", driver_.handleSize(handle),
                        " bytes in the driver, expected group size ",
                        groupBytes(), " (0 = released behind the pool)");
        }
    }
    for (const cuvmm::MemHandle handle : free_) {
        if (driver_.handleSize(handle) != groupBytes()) {
            report.fail("page_pool: pooled handle ", handle, " is ",
                        driver_.handleSize(handle),
                        " bytes in the driver, expected group size ",
                        groupBytes(), " (0 = released behind the pool)");
        }
        if (driver_.isMapped(handle)) {
            report.fail("page_pool: pooled handle ", handle,
                        " is still mapped in the driver");
        }
    }
    // Host tier conservation.
    report.check(host_created_ <= host_total_groups_,
                 "page_pool: created ", host_created_,
                 " host pages but the host budget allows only ",
                 host_total_groups_);
    report.check(static_cast<i64>(host_free_.size()) + host_in_use_ ==
                     host_created_,
                 "page_pool: ", host_free_.size(), " free + ",
                 host_in_use_, " in-use host pages != ", host_created_,
                 " created");
}

void
PagePool::addRef(cuvmm::MemHandle handle)
{
    auto it = refs_.find(handle);
    panic_if(it == refs_.end() || it->second < 1,
             "addRef on a handle not handed out");
    ++it->second;
}

int
PagePool::refCount(cuvmm::MemHandle handle) const
{
    auto it = refs_.find(handle);
    return it == refs_.end() ? 0 : it->second;
}

void
PagePool::dropShared(cuvmm::MemHandle handle)
{
    auto it = refs_.find(handle);
    panic_if(it == refs_.end() || it->second <= 1,
             "dropShared needs a handle with other references");
    --it->second;
}

void
PagePool::release(cuvmm::MemHandle handle)
{
    auto it = refs_.find(handle);
    panic_if(groups_in_use_ <= 0 || it == refs_.end() ||
                 it->second < 1,
             "pool release without acquire");
    panic_if(it->second != 1,
             "pool release of a handle still referenced elsewhere");
    // Park the entry at zero instead of erasing it: the handle cycles
    // back through acquire() and reusing the node keeps the
    // release/acquire steady state off the heap.
    it->second = 0;
    --groups_in_use_;
    free_.push_back(handle);
}

void
PagePool::releaseDestroyed(cuvmm::MemHandle handle)
{
    auto it = refs_.find(handle);
    panic_if(groups_in_use_ <= 0 || it == refs_.end() ||
                 it->second < 1,
             "pool release without acquire");
    panic_if(it->second != 1,
             "destroying a handle still referenced elsewhere");
    refs_.erase(it); // gone for good: never returns through acquire()
    --groups_in_use_;
    --created_;
}

} // namespace vattn::core
