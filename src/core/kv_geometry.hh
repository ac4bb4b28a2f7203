/**
 * @file
 * All of the paper's KV-cache size arithmetic in one place (§5.1.3,
 * Table 8, Table 10): buffer sizes, per-request sub-tensor strides,
 * tokens per page-group ("block size"), and page-group counts for a
 * given context length.
 *
 * Every buffer has the one per-token footprint of Config (H*D*P, or
 * N*H*D*P under tensor slicing), so the shape queries take no layer.
 * Only the sliding window differs per layer: windowTokens,
 * deadLeadGroups and liveGroupsForTokens take one, and expose the
 * dead/live split of a request's leading page-groups.
 */

#ifndef VATTN_CORE_KV_GEOMETRY_HH
#define VATTN_CORE_KV_GEOMETRY_HH

#include "common/types.hh"
#include "core/config.hh"

namespace vattn::core
{

/** Derived size/layout quantities for one worker's KV cache. */
class KvGeometry
{
  public:
    explicit KvGeometry(const Config &config);

    // ---- Buffer numbering ----------------------------------------------

    /** Number of virtual buffers: 2N per-layer tensors, or 2 in the
     *  tensor-slicing layout (§8.2). */
    int numBuffers() const;

    /** The buffers holding @p layer's K and V: K buffers are 0..N-1,
     *  V buffers N..2N-1 (slicing folds every layer into 0 and 1). */
    int kBuffer(int layer) const;
    int vBuffer(int layer) const;

    /** The layer whose KV lives in buffer @p buffer (slicing folds
     *  everything into layer 0). */
    int layerOfBuffer(int buffer) const;

    // ---- The one footprint -------------------------------------------

    /** Bytes one token contributes to one buffer: H*D*P, or N*H*D*P
     *  when tensor slicing folds every layer's KV into one buffer. */
    u64 tokenBytesPerBuffer() const;

    /** Tokens covered by one page-group in one buffer — the paper's
     *  "block size" (Tables 8 and 10). */
    i64 tokensPerGroup() const;

    /** Page-groups per buffer needed to reach a context of @p tokens
     *  tokens — the frontier, dead groups included. */
    i64 groupsForTokens(i64 tokens) const;

    /** One request's maximum share of one buffer. */
    u64 perRequestBytes() const;

    /** perRequestBytes() rounded up to the page-group. */
    u64 perRequestBytesAligned() const;

    /** Size of one virtual buffer (B requests). */
    u64 bufferBytes() const;

    /** Max page-groups per buffer (context = L). */
    i64 maxGroupsPerRequest() const;

    // ---- Per-layer windows -------------------------------------------

    /** Any sliding-window layer? */
    bool hasWindows() const;

    /** Sliding-window width of @p layer; 0 for full attention. */
    i64 windowTokens(int layer) const;

    /**
     * Leading page-groups of @p layer that are fully behind the
     * sliding window at context @p tokens and may be unmapped. The
     * division floors: a group the window straddles stays mapped.
     * Always 0 for full-attention layers.
     */
    i64 deadLeadGroups(int layer, i64 tokens) const;

    /** Page-groups of @p layer actually mapped at context @p tokens:
     *  groupsForTokens minus the dead lead. */
    i64 liveGroupsForTokens(int layer, i64 tokens) const;

    // ---- Cross-layer sums --------------------------------------------

    /** Live page-group mappings summed over every buffer at context
     *  @p tokens (the handle-count a fresh request of that length
     *  occupies). */
    i64 handlesForTokens(i64 tokens) const;

    /** Frontier page-group count summed over every buffer (dead lead
     *  included) — the virtual-range high-water mark. */
    i64 frontierHandlesForTokens(i64 tokens) const;

    /** Total virtual memory reserved across all buffers. */
    u64 totalVirtualBytes() const;

    /** Physical bytes mapped for a request of @p tokens tokens across
     *  all buffers, including page-group rounding waste. Dead leading
     *  groups of sliding-window layers are excluded — they are
     *  unmapped by the runtime. */
    u64 physBytesForTokens(i64 tokens) const;

    /** Internal fragmentation for a request of @p tokens tokens
     *  (mapped bytes minus live-token payload). */
    u64 wasteBytesForTokens(i64 tokens) const;

    u64 groupBytes() const { return bytes(config_.page_group); }

  private:
    Config config_;
    bool has_windows_ = false;
};

} // namespace vattn::core

#endif // VATTN_CORE_KV_GEOMETRY_HH
