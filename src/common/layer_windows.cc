#include "common/layer_windows.hh"

#include <string>
#include <utility>

#include "common/logging.hh"

namespace vattn
{

Status
validateLayerWindows(std::span<const i64> layer_window_tokens,
                     int num_layers, i64 max_context_len)
{
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
    return Status::ok();
}

std::vector<WindowClass>
windowClasses(std::span<const i64> layer_window_tokens, int num_layers)
{
    fatal_if(!layer_window_tokens.empty() &&
                 static_cast<int>(layer_window_tokens.size()) < num_layers,
             "the ", layer_window_tokens.size(),
             "-entry window list does not cover ", num_layers, " layers");
    std::vector<WindowClass> classes;
    for (int layer = 0; layer < num_layers; ++layer) {
        const i64 window =
            layer_window_tokens.empty()
                ? 0
                : layer_window_tokens[static_cast<std::size_t>(layer)];
        bool found = false;
        for (WindowClass &cls : classes) {
            if (cls.window_tokens == window) {
                ++cls.layers;
                found = true;
                break;
            }
        }
        if (!found) {
            classes.push_back(WindowClass{window, 1});
        }
    }
    // Full attention first for stable reporting order.
    for (std::size_t i = 1; i < classes.size(); ++i) {
        if (classes[i].window_tokens == 0) {
            std::swap(classes[0], classes[i]);
            break;
        }
    }
    return classes;
}

} // namespace vattn
