/**
 * @file
 * Block-Table construction, modelling the CPU-side work PagedAttention
 * adds to every iteration (§3.3.2):
 *
 *  - vLLM keeps a padded 2D tensor [batch, max_num_blocks]; preparation
 *    cost grows with batch_size * max_num_blocks because short requests
 *    are padded to the longest one.
 *  - FlashInfer uses a compressed (CSR) representation, cheaper to scan
 *    but requiring per-iteration object creation/deletion.
 *
 * vAttention needs neither — the whole point of virtual contiguity.
 *
 * Test-only: no serving path builds block tables (the paged runtime
 * prices them through perf::OverheadModel), so it lives under
 * tests/paged/, which the test binaries have on their include path,
 * and is included as "paged/block_table.hh".
 */

#ifndef VATTN_PAGED_BLOCK_TABLE_HH
#define VATTN_PAGED_BLOCK_TABLE_HH

#include <vector>

#include "common/types.hh"

namespace vattn::paged
{

/** vLLM-style padded 2D Block-Table. */
struct PaddedBlockTable
{
    i64 batch = 0;
    i64 max_blocks = 0;          ///< blocks in the longest request
    std::vector<i32> entries;    ///< batch * max_blocks, -1 padded

    /** Build from per-request block lists. */
    static PaddedBlockTable
    build(const std::vector<const std::vector<i32> *> &request_blocks);

    /** Number of tensor slots written (the CPU cost driver). */
    i64 numEntries() const { return batch * max_blocks; }

    i32 at(i64 request, i64 slot) const;
};

/** FlashInfer-style compressed (CSR) Block-Table. */
struct CompressedBlockTable
{
    std::vector<i32> indptr;  ///< batch+1 offsets
    std::vector<i32> indices; ///< concatenated block ids

    static CompressedBlockTable
    build(const std::vector<const std::vector<i32> *> &request_blocks);

    i64 numEntries() const { return static_cast<i64>(indices.size()); }
    i64 batch() const { return static_cast<i64>(indptr.size()) - 1; }

    /** Blocks of one request as a span [begin, end). */
    std::pair<const i32 *, const i32 *> row(i64 request) const;
};

} // namespace vattn::paged

#endif // VATTN_PAGED_BLOCK_TABLE_HH
