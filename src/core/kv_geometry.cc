#include "core/kv_geometry.hh"

#include "common/logging.hh"

namespace vattn::core
{

KvGeometry::KvGeometry(const Config &config)
    : config_(config)
{
    const int layers = config_.tensor_slicing ? 1 : config_.num_layers;
    specs_.reserve(static_cast<std::size_t>(layers));
    for (int layer = 0; layer < layers; ++layer) {
        specs_.push_back(config_.layerSpec(layer));
    }
    const LayerKvSpec &first = specs_.front();
    for (const LayerKvSpec &spec : specs_) {
        if (spec.kind == AttentionKind::kSlidingWindow) {
            has_windows_ = true;
        }
        if (spec.kv_heads != first.kv_heads ||
            spec.head_dim != first.head_dim ||
            spec.bytes_per_elem != first.bytes_per_elem) {
            uniform_footprint_ = false;
        }
    }
}

int
KvGeometry::numBuffers() const
{
    return config_.tensor_slicing ? 2 : 2 * config_.num_layers;
}

int
KvGeometry::layerOfBuffer(int buffer) const
{
    if (config_.tensor_slicing) {
        return 0;
    }
    return buffer < config_.num_layers ? buffer
                                       : buffer - config_.num_layers;
}

bool
KvGeometry::hasWindows() const
{
    return has_windows_;
}

bool
KvGeometry::uniformFootprint() const
{
    return uniform_footprint_;
}

i64
KvGeometry::windowTokens(int layer) const
{
    const LayerKvSpec &spec =
        specs_[static_cast<std::size_t>(layer)];
    return spec.kind == AttentionKind::kSlidingWindow
               ? spec.window_tokens
               : 0;
}

u64
KvGeometry::tokenBytesPerBuffer(int layer) const
{
    const LayerKvSpec &spec =
        specs_[static_cast<std::size_t>(layer)];
    u64 per_layer = static_cast<u64>(spec.kv_heads) *
                    static_cast<u64>(spec.head_dim) *
                    static_cast<u64>(spec.bytes_per_elem);
    return config_.tensor_slicing
               ? per_layer * static_cast<u64>(config_.num_layers)
               : per_layer;
}

i64
KvGeometry::tokensPerGroup(int layer) const
{
    return static_cast<i64>(groupBytes() / tokenBytesPerBuffer(layer));
}

i64
KvGeometry::groupsForTokens(int layer, i64 tokens) const
{
    if (tokens <= 0) {
        return 0;
    }
    const u64 bytes_needed =
        static_cast<u64>(tokens) * tokenBytesPerBuffer(layer);
    return static_cast<i64>(ceilDiv(bytes_needed, groupBytes()));
}

i64
KvGeometry::deadLeadGroups(int layer, i64 tokens) const
{
    const i64 window = windowTokens(layer);
    if (window <= 0 || tokens <= window) {
        return 0;
    }
    // Tokens [0, tokens - window) are behind the window; only groups
    // entirely inside that range are dead (floor keeps the straddled
    // group mapped).
    return (tokens - window) / tokensPerGroup(layer);
}

i64
KvGeometry::liveGroupsForTokens(int layer, i64 tokens) const
{
    return groupsForTokens(layer, tokens) -
           deadLeadGroups(layer, tokens);
}

u64
KvGeometry::perRequestBytes(int layer) const
{
    return static_cast<u64>(config_.max_context_len) *
           tokenBytesPerBuffer(layer);
}

u64
KvGeometry::perRequestBytesAligned(int layer) const
{
    return roundUp(perRequestBytes(layer), groupBytes());
}

u64
KvGeometry::bufferBytesFor(int buffer) const
{
    return static_cast<u64>(config_.max_batch_size) *
           perRequestBytesAligned(layerOfBuffer(buffer));
}

i64
KvGeometry::maxGroupsPerRequest(int layer) const
{
    return groupsForTokens(layer, config_.max_context_len);
}

i64
KvGeometry::handlesForTokens(i64 tokens) const
{
    i64 handles = 0;
    for (int buffer = 0; buffer < numBuffers(); ++buffer) {
        handles += liveGroupsForTokens(layerOfBuffer(buffer), tokens);
    }
    return handles;
}

i64
KvGeometry::frontierHandlesForTokens(i64 tokens) const
{
    i64 handles = 0;
    for (int buffer = 0; buffer < numBuffers(); ++buffer) {
        handles += groupsForTokens(layerOfBuffer(buffer), tokens);
    }
    return handles;
}

u64
KvGeometry::totalVirtualBytes() const
{
    u64 total = 0;
    for (int buffer = 0; buffer < numBuffers(); ++buffer) {
        total += bufferBytesFor(buffer);
    }
    return total;
}

i64
KvGeometry::tokensPerGroup() const
{
    panic_if(!uniform_footprint_,
             "KvGeometry::tokensPerGroup is only meaningful with a "
             "layer-uniform per-token footprint; use the (layer) "
             "overload");
    return tokensPerGroup(0);
}

u64
KvGeometry::physBytesForTokens(i64 tokens) const
{
    u64 total = 0;
    for (int buffer = 0; buffer < numBuffers(); ++buffer) {
        total += static_cast<u64>(liveGroupsForTokens(
                     layerOfBuffer(buffer), tokens)) *
                 groupBytes();
    }
    return total;
}

u64
KvGeometry::wasteBytesForTokens(i64 tokens) const
{
    if (tokens <= 0) {
        return 0;
    }
    // Live payload: every buffer holds min(tokens, window) useful
    // tokens plus whatever dead prefix the straddled group retains —
    // only the in-window tokens count as useful here.
    u64 useful = 0;
    for (int buffer = 0; buffer < numBuffers(); ++buffer) {
        const int layer = layerOfBuffer(buffer);
        const i64 window = windowTokens(layer);
        const i64 live =
            window > 0 && tokens > window ? window : tokens;
        useful += static_cast<u64>(live) * tokenBytesPerBuffer(layer);
    }
    return physBytesForTokens(tokens) - useful;
}

} // namespace vattn::core
