/**
 * @file
 * Kernel portability — the Figure 16 argument made executable. With
 * PagedAttention, swapping the attention kernel means porting paging
 * support into the new kernel. With vAttention, the KV cache is a
 * plain (virtually) contiguous tensor, so ANY kernel that consumes
 * contiguous K/V works unmodified: we run three different kernel
 * implementations (naive reference, FlashAttention-style tiled, and a
 * "next-gen" kernel stand-in) over the SAME vAttention-managed cache
 * with zero memory-management changes, and verify identical outputs.
 * A strided (tensor-slicing, §8.2) layout is also exercised — that is
 * what FA2's stride support buys.
 *
 * Build & run:  ./build/examples/kernel_portability
 */

#include <cstdio>

#include "attn/kernels.hh"
#include "attn/reference.hh"
#include "core/vattention.hh"
#include "cuvmm/driver.hh"

using namespace vattn;

namespace
{

/**
 * Stand-in for tomorrow's attention kernel (e.g. FA3): different
 * traversal order (heads outermost in reverse), same math. The point
 * is not the loop order — it is that this function knows NOTHING
 * about page-groups, block tables or reqIds.
 */
void
nextGenDecodeKernel(const attn::AttnConfig &config,
                    const tensor::HostTensor &q, const attn::KvView &kv,
                    i64 kv_len, tensor::HostTensor &out)
{
    tensor::HostTensor q_one(tensor::Shape{1, config.head_dim});
    tensor::HostTensor out_one(q_one.shape());
    for (int head = config.num_q_heads - 1; head >= 0; --head) {
        attn::AttnConfig one{1, 1, config.head_dim, true, 0.0f};
        // Borrow the single-head path through a per-head view.
        for (int c = 0; c < config.head_dim; ++c) {
            q_one.at({0, c}) = q.at({head, c});
        }
        // A per-head adapter view over the same KV.
        struct HeadView : attn::KvView
        {
            const attn::KvView *base;
            int head;
            int numKvHeads() const override { return 1; }
            int headDim() const override { return base->headDim(); }
            void
            loadK(i64 t, int, float *o) const override
            {
                base->loadK(t, head, o);
            }
            void
            loadV(i64 t, int, float *o) const override
            {
                base->loadV(t, head, o);
            }
        } head_view;
        head_view.base = &kv;
        head_view.head = config.kvHeadFor(head);
        attn::flashDecode(one, q_one, head_view, kv_len, out_one);
        for (int c = 0; c < config.head_dim; ++c) {
            out.at({head, c}) = out_one.at({0, c});
        }
    }
}

core::VAttention
makeRuntime(cuvmm::Driver &driver, bool tensor_slicing)
{
    core::Config config;
    config.num_layers = 3;
    config.num_kv_heads = 2;
    config.head_dim = 16;
    config.max_batch_size = 4;
    config.max_context_len = 4096;
    config.page_group = tensor_slicing ? PageGroup::k2MB
                                       : PageGroup::k64KB;
    config.tensor_slicing = tensor_slicing;
    config.phys_budget_bytes = 128 * MiB;
    return core::VAttention(driver, config);
}

} // namespace

int
main()
{
    gpu::GpuDevice::Config dev_config;
    dev_config.mem_bytes = 512 * MiB;

    const attn::AttnConfig attn_config{4, 2, 16, true, 0.0f};
    Rng rng(123);
    tensor::HostTensor q(tensor::Shape{4, 16});
    q.fillRandom(rng);

    for (bool slicing : {false, true}) {
        gpu::GpuDevice device(dev_config);
        cuvmm::Driver driver(device);
        auto vattn = makeRuntime(driver, slicing);

        const int req = vattn.allocReqId().value();
        std::vector<i64> lens(4, 0);
        lens[static_cast<std::size_t>(req)] = 300;
        vattn.step(lens).status.expectOk("step");

        // Fill layer 1's KV with random vectors.
        auto view = vattn.requestView(1, req);
        std::vector<float> k(300 * 2 * 16);
        std::vector<float> v(300 * 2 * 16);
        for (auto &x : k) {
            x = static_cast<float>(rng.uniform(-1, 1));
        }
        for (auto &x : v) {
            x = static_cast<float>(rng.uniform(-1, 1));
        }
        attn::appendKv(view, 0, 300, 2, 16, k.data(), v.data());

        // Three kernels, one cache, zero memory-management changes.
        tensor::HostTensor out_ref(q.shape());
        tensor::HostTensor out_flash(q.shape());
        tensor::HostTensor out_next(q.shape());
        attn::referenceDecode(attn_config, q, view, 300, out_ref);
        attn::flashDecode(attn_config, q, view, 300, out_flash);
        nextGenDecodeKernel(attn_config, q, view, 300, out_next);

        std::printf("[%s layout]\n",
                    slicing ? "tensor-slicing (strided, §8.2)"
                            : "per-layer contiguous");
        std::printf("  reference vs flash   : max |diff| = %.2e\n",
                    out_ref.maxAbsDiff(out_flash));
        std::printf("  reference vs next-gen: max |diff| = %.2e\n",
                    out_ref.maxAbsDiff(out_next));
        const bool ok = out_ref.maxAbsDiff(out_flash) < 1e-4f &&
                        out_ref.maxAbsDiff(out_next) < 1e-4f;
        std::printf("  %s\n\n", ok ? "kernels swapped freely: OK"
                                   : "MISMATCH");
        if (!ok) {
            return 1;
        }
        vattn.freeReqId(req).expectOk("free");
    }
    std::printf("Replacing a kernel under vAttention touched no "
                "memory-management code — compare with the 600+ line "
                "Block-Table integrations the paper catalogues "
                "(§8.3).\n");
    return 0;
}
