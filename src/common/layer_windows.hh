/**
 * @file
 * The per-layer attention-window list (0 = full attention, otherwise a
 * sliding window of that many tokens), in the one shape the model
 * description and both KV runtimes share: its validity rules and its
 * grouping into window classes. Both runtimes check a list here, so
 * they refuse exactly the same lists with the same message, and the
 * paged runtime and the roofline model group layers alike.
 */

#ifndef VATTN_COMMON_LAYER_WINDOWS_HH
#define VATTN_COMMON_LAYER_WINDOWS_HH

#include <span>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"

namespace vattn
{

/** One attention-shape class: all layers sharing a window. */
struct WindowClass
{
    i64 window_tokens = 0; ///< 0 = full attention
    int layers = 0;        ///< layers with this window

    bool operator==(const WindowClass &) const = default;
};

/**
 * OK iff @p layer_window_tokens is empty (every layer full attention)
 * or has one entry per layer of @p num_layers, each in
 * [0, @p max_context_len]; otherwise kInvalidArgument naming the
 * first offending layer.
 */
Status validateLayerWindows(std::span<const i64> layer_window_tokens,
                            int num_layers, i64 max_context_len);

/** Layers grouped by window width (full class first when present); a
 *  single class {0, num_layers} for an empty list. The list must be
 *  empty or hold at least @p num_layers entries. */
std::vector<WindowClass>
windowClasses(std::span<const i64> layer_window_tokens, int num_layers);

} // namespace vattn

#endif // VATTN_COMMON_LAYER_WINDOWS_HH
