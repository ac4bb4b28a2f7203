#include "perf/model_spec.hh"

#include "common/logging.hh"

namespace vattn::perf
{

ModelSpec
ModelSpec::yi6B()
{
    return ModelSpec{
        "Yi-6B", 32, 32, 4, 128, 4096, 11008, 64000, 200 * 1024,
    };
}

ModelSpec
ModelSpec::llama3_8B()
{
    return ModelSpec{
        "Llama-3-8B", 32, 32, 8, 128, 4096, 14336, 128256, 200 * 1024,
    };
}

ModelSpec
ModelSpec::yi34B()
{
    return ModelSpec{
        "Yi-34B", 60, 56, 8, 128, 7168, 20480, 64000, 200 * 1024,
    };
}

ModelSpec
ModelSpec::llama3_70B()
{
    return ModelSpec{
        "Llama-3-70B", 80, 64, 8, 128, 8192, 28672, 128256, 128 * 1024,
    };
}

ModelSpec
ModelSpec::gpt3_175B()
{
    // GPT-3 uses multi-head attention (96 KV heads), hidden 12288 and
    // a 2-matrix GELU MLP of width 4h; numParams() assumes a 3-matrix
    // SwiGLU MLP, so we record the parameter-equivalent width 8h/3.
    return ModelSpec{
        "GPT-3-175B", 96, 96, 96, 128, 12288, 32768, 50257, 16 * 1024,
    };
}

ModelSpec
ModelSpec::withSlidingWindowInterleave(i64 window_tokens,
                                       int period) const
{
    fatal_if(window_tokens <= 0,
             "sliding-window interleave needs window_tokens > 0");
    fatal_if(window_tokens > max_context_len, "window_tokens ",
             window_tokens, " exceeds max_context_len ", max_context_len,
             "; a window that wide never evicts");
    fatal_if(period < 2, "interleave period must be at least 2 (a "
                         "period of 1 would leave no full layer)");
    ModelSpec spec = *this;
    spec.name += "-swa" + std::to_string(window_tokens);
    spec.layer_window_tokens.assign(
        static_cast<std::size_t>(num_layers), 0);
    for (int layer = 0; layer < num_layers; ++layer) {
        if (layer % period != 0) {
            spec.layer_window_tokens[static_cast<std::size_t>(layer)] =
                window_tokens;
        }
    }
    return spec;
}

std::vector<ModelSpec::WindowClass>
ModelSpec::windowClasses() const
{
    return vattn::windowClasses(layer_window_tokens, num_layers);
}

double
ModelSpec::numParams() const
{
    const double h = hidden_size;
    const double q_dim = static_cast<double>(num_q_heads) * head_dim;
    const double kv_dim = static_cast<double>(num_kv_heads) * head_dim;
    // Attention: Wq, Wo (h x q_dim each) + Wk, Wv (h x kv_dim each).
    const double attn = 2.0 * h * q_dim + 2.0 * h * kv_dim;
    // SwiGLU MLP: gate, up, down.
    const double mlp = 3.0 * h * intermediate_size;
    const double per_layer = attn + mlp;
    // Input embedding + output head.
    const double embed = 2.0 * static_cast<double>(vocab_size) * h;
    return per_layer * num_layers + embed;
}

u64
ModelSpec::weightBytesPerWorker(int tp) const
{
    return static_cast<u64>(numParams() * bytes_per_elem /
                            static_cast<double>(tp));
}

int
ModelSpec::kvHeadsPerWorker(int tp) const
{
    fatal_if(num_kv_heads % tp != 0,
             "KV heads (", num_kv_heads, ") not divisible by TP ", tp);
    return num_kv_heads / tp;
}

int
ModelSpec::qHeadsPerWorker(int tp) const
{
    fatal_if(num_q_heads % tp != 0,
             "Q heads (", num_q_heads, ") not divisible by TP ", tp);
    return num_q_heads / tp;
}

u64
ModelSpec::kvBytesPerToken() const
{
    return 2ULL * static_cast<u64>(num_layers) *
           static_cast<u64>(num_kv_heads) * static_cast<u64>(head_dim) *
           static_cast<u64>(bytes_per_elem);
}

u64
ModelSpec::kvBytesPerTokenPerWorker(int tp) const
{
    // Via the head count, not kvBytesPerToken()/tp: a non-divisible
    // TP degree must fail loudly, never round.
    return 2ULL * static_cast<u64>(num_layers) *
           static_cast<u64>(kvHeadsPerWorker(tp)) *
           static_cast<u64>(head_dim) * static_cast<u64>(bytes_per_elem);
}

} // namespace vattn::perf
