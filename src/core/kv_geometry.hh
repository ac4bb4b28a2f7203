/**
 * @file
 * All of the paper's KV-cache size arithmetic in one place (§5.1.3,
 * Table 8, Table 10): buffer sizes, per-request sub-tensor strides,
 * tokens per page-group ("block size"), and page-group counts for a
 * given context length.
 *
 * This class is the per-layer authority: every per-buffer quantity
 * takes a (layer) argument, and sliding-window layers additionally
 * expose the dead/live split of a request's leading page-groups. The
 * one layer-blind shape accessor, tokensPerGroup(), is valid whenever
 * the per-token footprint is uniform across layers (the default, and
 * any windows-only spec list); it panics on truly heterogeneous
 * footprints so a stale call site fails loudly instead of silently
 * using layer 0's shape.
 */

#ifndef VATTN_CORE_KV_GEOMETRY_HH
#define VATTN_CORE_KV_GEOMETRY_HH

#include <vector>

#include "common/types.hh"
#include "core/config.hh"

namespace vattn::core
{

/** Derived size/layout quantities for one worker's KV cache. */
class KvGeometry
{
  public:
    explicit KvGeometry(const Config &config);

    /** Number of virtual buffers: 2N per-layer tensors, or 2 in the
     *  tensor-slicing layout (§8.2). */
    int numBuffers() const;

    /** The layer whose KV lives in buffer @p buffer (K buffers are
     *  0..N-1, V buffers N..2N-1; slicing folds everything into
     *  layer 0's shape). */
    int layerOfBuffer(int buffer) const;

    /** Any sliding-window layer in the spec list? */
    bool hasWindows() const;

    /** Same per-token footprint on every layer? (Windows allowed —
     *  only kv_heads/head_dim/bytes_per_elem must match.) */
    bool uniformFootprint() const;

    /** Sliding-window width of @p layer; 0 for full attention. */
    i64 windowTokens(int layer) const;

    // ---- Per-layer quantities (the authority) ------------------------

    /** Bytes one token contributes to ONE buffer of @p layer: H*D*P,
     *  or N*H*D*P when tensor slicing folds every layer's KV into one
     *  buffer. */
    u64 tokenBytesPerBuffer(int layer) const;

    /** Tokens covered by one page-group in one buffer of @p layer. */
    i64 tokensPerGroup(int layer) const;

    /** Page-groups (per buffer) of @p layer needed to reach a context
     *  of @p tokens tokens — the frontier, dead groups included. */
    i64 groupsForTokens(int layer, i64 tokens) const;

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

    /** One request's maximum share of one buffer of @p layer. */
    u64 perRequestBytes(int layer) const;

    /** perRequestBytes(layer) rounded up to the page-group. */
    u64 perRequestBytesAligned(int layer) const;

    /** Total size of virtual buffer @p buffer (B requests). */
    u64 bufferBytesFor(int buffer) const;

    /** Max page-groups per buffer of @p layer (context = L). */
    i64 maxGroupsPerRequest(int layer) const;

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

    /** Tokens covered by one page-group in one buffer — the paper's
     *  "block size" (Tables 8 and 10). Only meaningful when the
     *  per-token footprint is uniform across layers; panics otherwise
     *  (use the (layer) overload). */
    i64 tokensPerGroup() const;

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
    /** Resolved per-layer specs; size num_layers (or 1 when
     *  slicing folds the model into one logical layer). */
    std::vector<LayerKvSpec> specs_;
    bool has_windows_ = false;
    bool uniform_footprint_ = true;
};

} // namespace vattn::core

#endif // VATTN_CORE_KV_GEOMETRY_HH
