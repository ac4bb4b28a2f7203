#include "core/config.hh"

#include <string>

#include "core/kv_geometry.hh"

namespace vattn::core
{

tensor::DType
Config::dtype() const
{
    return bytes_per_elem == 4 ? tensor::DType::kF32
                               : tensor::DType::kF16;
}

LayerKvSpec
Config::layerSpec(int layer) const
{
    LayerKvSpec spec;
    if (layer >= 0 && layer < static_cast<int>(layers.size())) {
        spec = layers[static_cast<std::size_t>(layer)];
    }
    if (spec.kv_heads == 0) {
        spec.kv_heads = num_kv_heads;
    }
    if (spec.head_dim == 0) {
        spec.head_dim = head_dim;
    }
    if (spec.bytes_per_elem == 0) {
        spec.bytes_per_elem = bytes_per_elem;
    }
    return spec;
}

bool
Config::uniformLayers() const
{
    for (const LayerKvSpec &spec : layers) {
        if (spec.kind != AttentionKind::kFull ||
            (spec.kv_heads != 0 && spec.kv_heads != num_kv_heads) ||
            (spec.head_dim != 0 && spec.head_dim != head_dim) ||
            (spec.bytes_per_elem != 0 &&
             spec.bytes_per_elem != bytes_per_elem)) {
            return false;
        }
    }
    return true;
}

bool
Config::uniformFootprint() const
{
    const LayerKvSpec first = layerSpec(0);
    for (int layer = 1; layer < num_layers; ++layer) {
        const LayerKvSpec spec = layerSpec(layer);
        if (spec.kv_heads != first.kv_heads ||
            spec.head_dim != first.head_dim ||
            spec.bytes_per_elem != first.bytes_per_elem) {
            return false;
        }
    }
    return true;
}

Status
Config::validate() const
{
    if (num_layers <= 0 || num_kv_heads <= 0 || head_dim <= 0) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "model dimensions must be positive");
    }
    if (bytes_per_elem != 2 && bytes_per_elem != 4) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "bytes_per_elem must be 2 or 4");
    }
    if (max_batch_size <= 0) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "max_batch_size must be positive");
    }
    if (max_context_len <= 0) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "max_context_len must be positive");
    }
    if (eager_groups < 0) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "eager_groups must be >= 0");
    }
    if (reclaim_low_watermark < 0.0 || reclaim_low_watermark > 1.0) {
        return errorStatus(ErrorCode::kInvalidArgument,
                           "reclaim_low_watermark must be in [0, 1]");
    }
    if (!layers.empty() &&
        static_cast<int>(layers.size()) != num_layers) {
        return errorStatus(
            ErrorCode::kInvalidArgument,
            "per-layer spec list has " +
                std::to_string(layers.size()) +
                " entries but num_layers is " +
                std::to_string(num_layers) +
                "; provide one LayerKvSpec per layer (or none for "
                "the uniform default)");
    }
    for (int layer = 0; layer < num_layers && !layers.empty();
         ++layer) {
        const LayerKvSpec spec = layerSpec(layer);
        const std::string where = "layer " + std::to_string(layer);
        if (spec.kv_heads <= 0 || spec.head_dim <= 0) {
            return errorStatus(ErrorCode::kInvalidArgument,
                               where + ": kv_heads and head_dim must "
                                       "resolve to positive values");
        }
        if (spec.bytes_per_elem != 2 && spec.bytes_per_elem != 4) {
            return errorStatus(ErrorCode::kInvalidArgument,
                               where +
                                   ": bytes_per_elem must resolve "
                                   "to 2 or 4");
        }
        if (spec.kind == AttentionKind::kSlidingWindow) {
            if (spec.window_tokens <= 0) {
                return errorStatus(
                    ErrorCode::kInvalidArgument,
                    where + ": sliding-window layers need "
                            "window_tokens > 0");
            }
            if (spec.window_tokens > max_context_len) {
                return errorStatus(
                    ErrorCode::kInvalidArgument,
                    where + ": window_tokens " +
                        std::to_string(spec.window_tokens) +
                        " exceeds max_context_len " +
                        std::to_string(max_context_len) +
                        "; a window that wide never evicts — use a "
                        "full-attention layer instead");
            }
        } else if (spec.window_tokens != 0) {
            return errorStatus(
                ErrorCode::kInvalidArgument,
                where + ": window_tokens is only meaningful for "
                        "kSlidingWindow layers (set kind, or zero "
                        "the window)");
        }
    }
    if (tensor_slicing && !uniformLayers()) {
        return errorStatus(
            ErrorCode::kInvalidArgument,
            "tensor_slicing packs every layer into one buffer and "
            "requires the uniform full-attention layer list");
    }
    if (prefix_caching && !uniformFootprint()) {
        return errorStatus(
            ErrorCode::kInvalidArgument,
            "prefix_caching hashes group-aligned token runs and "
            "requires the same per-token footprint on every layer "
            "(sliding windows are fine)");
    }
    const KvGeometry geometry(*this);
    // Slicing folds the model into one logical layer (one spec).
    const int geom_layers = tensor_slicing ? 1 : num_layers;
    for (int layer = 0; layer < geom_layers; ++layer) {
        if (geometry.tokensPerGroup(layer) < 1) {
            return errorStatus(
                ErrorCode::kInvalidArgument,
                "page-group smaller than one token's footprint; use "
                "a larger page-group or disable tensor slicing");
        }
    }
    return Status::ok();
}

} // namespace vattn::core
