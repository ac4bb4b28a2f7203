#include "paged/block_manager.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace vattn::paged
{

BlockManager::BlockManager(i64 num_blocks, i64 block_size,
                           bool enable_prefix_cache, i64 num_cpu_blocks)
    : num_blocks_(num_blocks), block_size_(block_size),
      prefix_cache_(enable_prefix_cache),
      num_cpu_blocks_(num_cpu_blocks),
      cpu_in_use_(static_cast<std::size_t>(num_cpu_blocks), false),
      ref_counts_(static_cast<std::size_t>(num_blocks), 0),
      block_hash_(static_cast<std::size_t>(num_blocks), 0),
      has_hash_(static_cast<std::size_t>(num_blocks), false),
      evictable_pos_(static_cast<std::size_t>(num_blocks)),
      is_evictable_(static_cast<std::size_t>(num_blocks), false)
{
    fatal_if(num_blocks <= 0, "BlockManager needs > 0 blocks");
    fatal_if(block_size <= 0, "BlockManager needs > 0 block size");
    fatal_if(num_cpu_blocks < 0, "negative CPU block pool");
    free_list_.resize(static_cast<std::size_t>(num_blocks));
    // Hand out low block ids first (stable, test friendly).
    std::iota(free_list_.rbegin(), free_list_.rend(), 0);
    cpu_free_list_.resize(static_cast<std::size_t>(num_cpu_blocks));
    std::iota(cpu_free_list_.rbegin(), cpu_free_list_.rend(), 0);
}

void
BlockManager::dropHash(i32 block)
{
    const auto idx = static_cast<std::size_t>(block);
    if (!has_hash_[idx]) {
        return;
    }
    auto it = hash_to_block_.find(block_hash_[idx]);
    if (it != hash_to_block_.end() && it->second == block) {
        hash_to_block_.erase(it);
    }
    has_hash_[idx] = false;
}

i64
BlockManager::blocksFor(i64 tokens) const
{
    return static_cast<i64>(
        ceilDiv(static_cast<u64>(tokens), static_cast<u64>(block_size_)));
}

Result<i32>
BlockManager::allocBlock()
{
    if (!free_list_.empty()) {
        const i32 block = free_list_.back();
        free_list_.pop_back();
        ref_counts_[static_cast<std::size_t>(block)] = 1;
        return block;
    }
    if (!evictable_.empty()) {
        // Evict the least recently parked cached block: its prefix
        // entry is gone, its storage is reused.
        const i32 block = evictable_.front();
        evictable_.pop_front();
        is_evictable_[static_cast<std::size_t>(block)] = false;
        dropHash(block);
        ref_counts_[static_cast<std::size_t>(block)] = 1;
        return block;
    }
    return Result<i32>(ErrorCode::kOutOfMemory, "block pool empty");
}

Status
BlockManager::addRef(i32 block)
{
    if (block < 0 || block >= num_blocks_) {
        return errorStatus(ErrorCode::kInvalidArgument, "bad block id");
    }
    auto &count = ref_counts_[static_cast<std::size_t>(block)];
    if (count == 0) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "addRef on free block");
    }
    ++count;
    return Status::ok();
}

Status
BlockManager::freeBlock(i32 block)
{
    if (block < 0 || block >= num_blocks_) {
        return errorStatus(ErrorCode::kInvalidArgument, "bad block id");
    }
    auto &count = ref_counts_[static_cast<std::size_t>(block)];
    if (count == 0) {
        return errorStatus(ErrorCode::kFailedPrecondition, "double free");
    }
    if (--count == 0) {
        const auto idx = static_cast<std::size_t>(block);
        // Park only when this block is still the hash map's holder of
        // its hash (a newer block may have superseded it).
        if (prefix_cache_ && has_hash_[idx] &&
            lookupHash(block_hash_[idx]) == block) {
            // Park for prefix reuse instead of freeing.
            evictable_.push_back(block);
            evictable_pos_[idx] = std::prev(evictable_.end());
            is_evictable_[idx] = true;
        } else {
            dropHash(block);
            free_list_.push_back(block);
        }
    }
    return Status::ok();
}

void
BlockManager::setBlockHash(i32 block, u64 hash)
{
    if (!prefix_cache_) {
        return;
    }
    panic_if(block < 0 || block >= num_blocks_, "bad block id");
    const auto idx = static_cast<std::size_t>(block);
    panic_if(ref_counts_[idx] == 0, "setBlockHash on a free block");
    dropHash(block);
    // Supersede any previous holder of this hash: a parked copy can
    // never be found again (the map points here now), so free it; a
    // live holder just loses its tag and will free normally.
    auto it = hash_to_block_.find(hash);
    if (it != hash_to_block_.end() && it->second != block) {
        const i32 old = it->second;
        const auto old_idx = static_cast<std::size_t>(old);
        has_hash_[old_idx] = false;
        if (is_evictable_[old_idx]) {
            evictable_.erase(evictable_pos_[old_idx]);
            is_evictable_[old_idx] = false;
            free_list_.push_back(old);
        }
    }
    block_hash_[idx] = hash;
    has_hash_[idx] = true;
    hash_to_block_[hash] = block; // latest block wins
}

i32
BlockManager::lookupHash(u64 hash) const
{
    auto it = hash_to_block_.find(hash);
    return it == hash_to_block_.end() ? -1 : it->second;
}

Status
BlockManager::refSharedBlock(i32 block)
{
    if (block < 0 || block >= num_blocks_) {
        return errorStatus(ErrorCode::kInvalidArgument, "bad block id");
    }
    const auto idx = static_cast<std::size_t>(block);
    if (ref_counts_[idx] > 0) {
        ++ref_counts_[idx];
        return Status::ok();
    }
    if (!is_evictable_[idx]) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "refSharedBlock on a free block");
    }
    evictable_.erase(evictable_pos_[idx]);
    is_evictable_[idx] = false;
    ref_counts_[idx] = 1;
    return Status::ok();
}

Result<i32>
BlockManager::swapOutBlock(i32 block)
{
    if (block < 0 || block >= num_blocks_) {
        return Result<i32>(ErrorCode::kInvalidArgument, "bad block id");
    }
    const auto idx = static_cast<std::size_t>(block);
    if (ref_counts_[idx] != 1) {
        // Shared (prefix-aliased) blocks never leave the device while
        // another request references them; free blocks cannot move.
        return Result<i32>(ErrorCode::kFailedPrecondition,
                           ref_counts_[idx] == 0
                               ? "swapOutBlock on a free block"
                               : "block shared with another request");
    }
    if (cpu_free_list_.empty()) {
        return Result<i32>(ErrorCode::kOutOfMemory,
                           num_cpu_blocks_ == 0 ? "CPU pool disabled"
                                                : "CPU pool full");
    }
    const i32 cpu_block = cpu_free_list_.back();
    cpu_free_list_.pop_back();
    cpu_in_use_[static_cast<std::size_t>(cpu_block)] = true;
    // The content leaves the device: the hash entry must go with it
    // (a later prefix match may not adopt a block that is not there).
    dropHash(block);
    ref_counts_[idx] = 0;
    free_list_.push_back(block);
    return cpu_block;
}

Result<i32>
BlockManager::swapInBlock(i32 cpu_block)
{
    if (cpu_block < 0 || cpu_block >= num_cpu_blocks_ ||
        !cpu_in_use_[static_cast<std::size_t>(cpu_block)]) {
        return Result<i32>(ErrorCode::kInvalidArgument,
                           "bad CPU block id");
    }
    auto block = allocBlock();
    if (!block.isOk()) {
        return block; // device pool full: caller preempts/waits
    }
    cpu_in_use_[static_cast<std::size_t>(cpu_block)] = false;
    cpu_free_list_.push_back(cpu_block);
    return block;
}

Result<i32>
BlockManager::acquireCpuBlock()
{
    if (cpu_free_list_.empty()) {
        return Result<i32>(ErrorCode::kOutOfMemory,
                           num_cpu_blocks_ == 0 ? "CPU pool disabled"
                                                : "CPU pool full");
    }
    const i32 cpu_block = cpu_free_list_.back();
    cpu_free_list_.pop_back();
    cpu_in_use_[static_cast<std::size_t>(cpu_block)] = true;
    return cpu_block;
}

Status
BlockManager::freeCpuBlock(i32 cpu_block)
{
    if (cpu_block < 0 || cpu_block >= num_cpu_blocks_ ||
        !cpu_in_use_[static_cast<std::size_t>(cpu_block)]) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "bad CPU block id");
    }
    cpu_in_use_[static_cast<std::size_t>(cpu_block)] = false;
    cpu_free_list_.push_back(cpu_block);
    return Status::ok();
}

int
BlockManager::refCount(i32 block) const
{
    panic_if(block < 0 || block >= num_blocks_, "bad block id");
    return ref_counts_[static_cast<std::size_t>(block)];
}

i64
BlockManager::totalRefCount() const
{
    i64 total = 0;
    for (int count : ref_counts_) {
        total += count;
    }
    return total;
}

void
BlockManager::auditInto(audit::AuditReport &report) const
{
    i64 zero_holders = 0;
    for (i32 block : free_list_) {
        if (block < 0 || block >= num_blocks_) {
            report.fail("block_manager: free list holds out-of-range "
                        "block ", block);
            continue;
        }
        if (ref_counts_[static_cast<std::size_t>(block)] != 0 ||
            is_evictable_[static_cast<std::size_t>(block)]) {
            report.fail("block_manager: free block ", block,
                        " has refcount ",
                        ref_counts_[static_cast<std::size_t>(block)],
                        " / evictable=",
                        is_evictable_[static_cast<std::size_t>(block)],
                        " (free blocks must be unreferenced and "
                        "unparked)");
        }
        ++zero_holders;
    }
    for (i32 block : evictable_) {
        // Evictable blocks keep their hash entry and refcount 0.
        const auto idx = static_cast<std::size_t>(block);
        if (ref_counts_[idx] != 0 || !is_evictable_[idx] ||
            !has_hash_[idx] ||
            lookupHash(block_hash_[idx]) != block) {
            report.fail("block_manager: evictable block ", block,
                        " lost its refcount-0 / hashed / "
                        "hash-map-backed shape");
        }
        ++zero_holders;
    }
    i64 zero_refs = 0;
    for (int count : ref_counts_) {
        if (count == 0) {
            ++zero_refs;
        }
    }
    report.check(zero_holders == zero_refs,
                 "block_manager: ", zero_refs,
                 " blocks have refcount 0 but free+evictable lists "
                 "hold ", zero_holders,
                 " (a freed block fell off both lists or a live block "
                 "is parked)");
    // CPU pool conservation: every CPU block is either free or in use.
    i64 cpu_used = 0;
    for (i32 cpu_block : cpu_free_list_) {
        if (cpu_block < 0 || cpu_block >= num_cpu_blocks_ ||
            cpu_in_use_[static_cast<std::size_t>(cpu_block)]) {
            report.fail("block_manager: CPU free list holds invalid "
                        "or in-use block ", cpu_block);
        }
    }
    for (bool used : cpu_in_use_) {
        cpu_used += used ? 1 : 0;
    }
    report.check(cpu_used + numCpuFree() == num_cpu_blocks_,
                 "block_manager: ", cpu_used, " in-use + ",
                 numCpuFree(), " free CPU blocks != pool size ",
                 num_cpu_blocks_);
}

RequestBlocks::RequestBlocks(BlockManager *manager)
    : manager_(manager)
{
    panic_if(!manager_, "RequestBlocks with null manager");
}

RequestBlocks::~RequestBlocks()
{
    releaseAll();
}

RequestBlocks::RequestBlocks(RequestBlocks &&other) noexcept
    : manager_(other.manager_), blocks_(std::move(other.blocks_)),
      lead_(other.lead_)
{
    other.blocks_.clear();
    other.lead_ = 0;
}

RequestBlocks &
RequestBlocks::operator=(RequestBlocks &&other) noexcept
{
    if (this != &other) {
        releaseAll();
        manager_ = other.manager_;
        blocks_ = std::move(other.blocks_);
        lead_ = other.lead_;
        other.blocks_.clear();
        other.lead_ = 0;
    }
    return *this;
}

Status
RequestBlocks::ensureTokens(i64 tokens)
{
    const i64 need = manager_->blocksFor(tokens);
    while (static_cast<i64>(blocks_.size()) < need) {
        auto block = manager_->allocBlock();
        if (!block.isOk()) {
            return block.status();
        }
        blocks_.push_back(block.value());
    }
    return Status::ok();
}

void
RequestBlocks::advanceLeadTo(i64 lead_blocks)
{
    if (lead_blocks <= lead_) {
        return; // the lead never rewinds
    }
    if (blocks_.empty()) {
        // A fresh list whose context already outran the window: skip
        // the dead region without ever allocating it.
        blocks_.assign(static_cast<std::size_t>(lead_blocks), kNoBlock);
        lead_ = lead_blocks;
        return;
    }
    const i64 stop =
        std::min(lead_blocks, static_cast<i64>(blocks_.size()));
    while (lead_ < stop) {
        i32 &entry = blocks_[static_cast<std::size_t>(lead_)];
        if (entry != kNoBlock) {
            manager_->freeBlock(entry).expectOk(
                "free dead window-lead block");
            entry = kNoBlock;
        }
        ++lead_;
    }
    // A lead past the current frontier extends the table with dead
    // entries (the next ensureTokens grows from there).
    if (lead_blocks > static_cast<i64>(blocks_.size())) {
        blocks_.resize(static_cast<std::size_t>(lead_blocks), kNoBlock);
        lead_ = lead_blocks;
    }
}

Status
RequestBlocks::shareFrom(const RequestBlocks &parent, i64 prefix_tokens)
{
    if (!blocks_.empty()) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "shareFrom on a non-empty block list");
    }
    if (manager_ != parent.manager_) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "parent uses a different block pool");
    }
    if (parent.lead_ != 0) {
        return errorStatus(ErrorCode::kFailedPrecondition,
                           "parent's leading blocks were freed by a "
                           "sliding window; no intact prefix to share");
    }
    // Only whole blocks can be shared; a partial tail block would mix
    // two requests' tokens.
    const auto shared = static_cast<std::size_t>(
        prefix_tokens / manager_->blockSize());
    if (shared > parent.blocks_.size()) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "prefix longer than the parent's cache");
    }
    for (std::size_t i = 0; i < shared; ++i) {
        const i32 block = parent.blocks_[i];
        auto status = manager_->addRef(block);
        if (!status.isOk()) {
            releaseAll();
            return status;
        }
        blocks_.push_back(block);
    }
    return Status::ok();
}

Status
RequestBlocks::replaceBlock(std::size_t index, i32 new_block)
{
    if (index >= blocks_.size()) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "block index out of range");
    }
    if (static_cast<i64>(index) < lead_) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "block index inside the dead window lead");
    }
    auto status = manager_->freeBlock(blocks_[index]);
    if (!status.isOk()) {
        return status;
    }
    blocks_[index] = new_block;
    return Status::ok();
}

void
RequestBlocks::adoptBlock(i32 block)
{
    blocks_.push_back(block);
}

std::vector<i32>
RequestBlocks::releaseForSwap()
{
    std::vector<i32> blocks = std::move(blocks_);
    blocks_.clear();
    lead_ = 0;
    return blocks;
}

void
RequestBlocks::releaseAll()
{
    for (i32 block : blocks_) {
        if (block != kNoBlock) {
            manager_->freeBlock(block).expectOk(
                "RequestBlocks release");
        }
    }
    blocks_.clear();
    lead_ = 0;
}

i64
RequestBlocks::numTokensCapacity() const
{
    return static_cast<i64>(blocks_.size()) * manager_->blockSize();
}

} // namespace vattn::paged
