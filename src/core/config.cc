#include "core/config.hh"

#include "common/layer_windows.hh"
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
    const Status windows = validateLayerWindows(
        layer_window_tokens, num_layers, max_context_len);
    if (!windows.isOk()) {
        return windows;
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
