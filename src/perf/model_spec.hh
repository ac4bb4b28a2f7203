/**
 * @file
 * LLM architecture descriptions (Table 5 of the paper) plus derived
 * quantities the memory manager and roofline model need: parameter
 * counts, per-token KV bytes (§4: Yi-6B 64KB, Llama-3-8B 128KB,
 * Yi-34B 240KB) and per-worker splits under tensor parallelism.
 */

#ifndef VATTN_PERF_MODEL_SPEC_HH
#define VATTN_PERF_MODEL_SPEC_HH

#include <string>
#include <vector>

#include "common/layer_windows.hh"
#include "common/types.hh"

namespace vattn::perf
{

/** Transformer architecture shape. */
struct ModelSpec
{
    std::string name;
    int num_layers;
    int num_q_heads;
    int num_kv_heads;
    int head_dim;
    int hidden_size;
    int intermediate_size;
    int vocab_size;
    i64 max_context_len;
    int bytes_per_elem = 2; ///< FP16 weights/KV

    /**
     * Sliding-window width per layer in tokens (0 = full attention).
     * Empty means every layer is full attention — the Table-5 models.
     * Mistral/Gemma-style architectures interleave full and
     * sliding-window layers; the memory manager and roofline model
     * both consult this list. (The empty default initializer lets the
     * presets' aggregate initializers omit it warning-free.)
     */
    std::vector<i64> layer_window_tokens{};

    // ---- Presets (Table 5) -------------------------------------------
    static ModelSpec yi6B();      ///< 32L, 32Q/4KV heads, 200K ctx
    static ModelSpec llama3_8B(); ///< 32L, 32Q/8KV heads
    static ModelSpec yi34B();     ///< 60L, 56Q/8KV heads, 200K ctx
    /** Large models referenced by the §7.6.3 page-size study. */
    static ModelSpec llama3_70B();
    static ModelSpec gpt3_175B();

    /**
     * Copy of this spec with a Mistral-style attention interleave:
     * every @p period-th layer (0, period, 2*period, ...) keeps full
     * attention, the rest slide over @p window_tokens tokens. period 2
     * is the 1:1 full/SWA pattern of Gemma-2-class models. The window
     * must lie in [1, max_context_len].
     */
    ModelSpec withSlidingWindowInterleave(i64 window_tokens,
                                          int period = 2) const;

    /** One attention-shape class: all layers sharing a window. */
    using WindowClass = vattn::WindowClass;

    /** Layers grouped by window width (full class first when present);
     *  a single class {0, num_layers} for uniform models. */
    std::vector<WindowClass> windowClasses() const;

    // ---- Derived quantities -------------------------------------------

    /** Approximate parameter count (embeddings + blocks). */
    double numParams() const;

    /** Weight bytes resident on one of @p tp workers. */
    u64 weightBytesPerWorker(int tp) const;

    /** KV heads per worker under TP (heads split evenly, §5.1.3). */
    int kvHeadsPerWorker(int tp) const;
    int qHeadsPerWorker(int tp) const;

    /** Per-token KV bytes across all layers, K+V, ALL workers. */
    u64 kvBytesPerToken() const;
    /** Per-token KV bytes on one worker. */
    u64 kvBytesPerTokenPerWorker(int tp) const;
};

} // namespace vattn::perf

#endif // VATTN_PERF_MODEL_SPEC_HH
