#include "core/kv_geometry.hh"

#include <algorithm>

namespace vattn::core
{

KvGeometry::KvGeometry(const Config &config)
    : config_(config),
      has_windows_(std::any_of(config.layer_window_tokens.begin(),
                               config.layer_window_tokens.end(),
                               [](i64 window) { return window > 0; }))
{
}

int
KvGeometry::numBuffers() const
{
    return config_.tensor_slicing ? 2 : 2 * config_.num_layers;
}

int
KvGeometry::kBuffer(int layer) const
{
    return config_.tensor_slicing ? 0 : layer;
}

int
KvGeometry::vBuffer(int layer) const
{
    return config_.tensor_slicing ? 1 : config_.num_layers + layer;
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

u64
KvGeometry::tokenBytesPerBuffer() const
{
    const u64 per_layer = static_cast<u64>(config_.num_kv_heads) *
                          static_cast<u64>(config_.head_dim) *
                          static_cast<u64>(config_.bytes_per_elem);
    return config_.tensor_slicing
               ? per_layer * static_cast<u64>(config_.num_layers)
               : per_layer;
}

i64
KvGeometry::tokensPerGroup() const
{
    return static_cast<i64>(groupBytes() / tokenBytesPerBuffer());
}

i64
KvGeometry::groupsForTokens(i64 tokens) const
{
    if (tokens <= 0) {
        return 0;
    }
    const u64 bytes_needed =
        static_cast<u64>(tokens) * tokenBytesPerBuffer();
    return static_cast<i64>(ceilDiv(bytes_needed, groupBytes()));
}

u64
KvGeometry::perRequestBytes() const
{
    return static_cast<u64>(config_.max_context_len) *
           tokenBytesPerBuffer();
}

u64
KvGeometry::perRequestBytesAligned() const
{
    return roundUp(perRequestBytes(), groupBytes());
}

u64
KvGeometry::bufferBytes() const
{
    return static_cast<u64>(config_.max_batch_size) *
           perRequestBytesAligned();
}

i64
KvGeometry::maxGroupsPerRequest() const
{
    return groupsForTokens(config_.max_context_len);
}

bool
KvGeometry::hasWindows() const
{
    return has_windows_;
}

i64
KvGeometry::windowTokens(int layer) const
{
    return has_windows_ ? config_.layer_window_tokens
                              [static_cast<std::size_t>(layer)]
                        : 0;
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
    return (tokens - window) / tokensPerGroup();
}

i64
KvGeometry::liveGroupsForTokens(int layer, i64 tokens) const
{
    return groupsForTokens(tokens) - deadLeadGroups(layer, tokens);
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
    return numBuffers() * groupsForTokens(tokens);
}

u64
KvGeometry::totalVirtualBytes() const
{
    return static_cast<u64>(numBuffers()) * bufferBytes();
}

u64
KvGeometry::physBytesForTokens(i64 tokens) const
{
    return static_cast<u64>(handlesForTokens(tokens)) * groupBytes();
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
    i64 useful_tokens = 0;
    for (int buffer = 0; buffer < numBuffers(); ++buffer) {
        const i64 window = windowTokens(layerOfBuffer(buffer));
        useful_tokens +=
            window > 0 && tokens > window ? window : tokens;
    }
    return physBytesForTokens(tokens) -
           static_cast<u64>(useful_tokens) * tokenBytesPerBuffer();
}

} // namespace vattn::core
