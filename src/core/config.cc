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
    if (!layer_window_tokens.empty() &&
        static_cast<int>(layer_window_tokens.size()) != num_layers) {
        return errorStatus(
            ErrorCode::kInvalidArgument,
            "layer_window_tokens has " +
                std::to_string(layer_window_tokens.size()) +
                " entries but num_layers is " +
                std::to_string(num_layers) +
                "; provide one window per layer (0 = full attention), "
                "or none when every layer is full attention");
    }
    for (std::size_t layer = 0; layer < layer_window_tokens.size();
         ++layer) {
        const i64 window = layer_window_tokens[layer];
        const std::string where = "layer " + std::to_string(layer);
        if (window < 0) {
            return errorStatus(ErrorCode::kInvalidArgument,
                               where + ": window_tokens " +
                                   std::to_string(window) +
                                   " is negative (0 = full attention)");
        }
        if (window > max_context_len) {
            return errorStatus(
                ErrorCode::kInvalidArgument,
                where + ": window_tokens " + std::to_string(window) +
                    " exceeds max_context_len " +
                    std::to_string(max_context_len) +
                    "; a window that wide never evicts — use 0 (full "
                    "attention) instead");
        }
    }
    const KvGeometry geometry(*this);
    if (tensor_slicing && geometry.hasWindows()) {
        return errorStatus(
            ErrorCode::kInvalidArgument,
            "tensor_slicing packs every layer into one buffer and "
            "requires full attention on every layer");
    }
    if (geometry.tokensPerGroup() < 1) {
        return errorStatus(
            ErrorCode::kInvalidArgument,
            "page-group smaller than one token's footprint; use "
            "a larger page-group or disable tensor slicing");
    }
    return Status::ok();
}

} // namespace vattn::core
