/**
 * @file
 * End-to-end functional integration test: a miniature transformer
 * attention stack served through the vAttention runtime, validated
 * token-by-token against a host-side reference. Every step of
 * Algorithm 1 runs for real — reqId allocation, step() growing the
 * physical backing, KV appends through the virtual tensors, decode
 * attention over the (possibly strided) views, completion with
 * deferred reclamation and slot reuse — across page-group sizes and
 * both KV layouts.
 */

#include <tuple>

#include <gtest/gtest.h>

#include "attn/kernels.hh"
#include "attn/reference.hh"
#include "common/rng.hh"
#include "core/vattention.hh"
#include "cuvmm/driver.hh"
#include "test_util.hh"

namespace vattn
{
namespace
{

using Param = std::tuple<PageGroup, bool>; // (page group, slicing)

class FunctionalServing : public ::testing::TestWithParam<Param>
{
  protected:
    static constexpr int kLayers = 3;
    static constexpr int kKvHeads = 2;
    static constexpr int kQHeads = 4;
    static constexpr int kDim = 16;
    static constexpr int kBatch = 3;
};

TEST_P(FunctionalServing, MatchesHostReference)
{
    const auto [group, slicing] = GetParam();

    gpu::GpuDevice::Config dev_config;
    dev_config.mem_bytes = 512 * MiB;
    gpu::GpuDevice device(dev_config);
    cuvmm::Driver driver(device);

    core::Config config;
    config.num_layers = kLayers;
    config.num_kv_heads = kKvHeads;
    config.head_dim = kDim;
    config.max_batch_size = kBatch;
    config.max_context_len = 2048;
    config.page_group = group;
    config.tensor_slicing = slicing;
    config.phys_budget_bytes = 256 * MiB;
    ASSERT_TRUE(config.validate().isOk());
    core::VAttention vattn(driver, config);

    const attn::AttnConfig attn_config{kQHeads, kKvHeads, kDim, true,
                                       0.0f};
    Rng rng(0xabc);

    // Host-side mirror of every request's KV at every layer.
    struct HostState
    {
        std::vector<tensor::HostTensor> k; // per layer [L, H, D]
        std::vector<tensor::HostTensor> v;
        i64 len = 0;
        int req_id = -1;
    };
    const i64 prompts[kBatch] = {70, 33, 128};
    const int decodes = 12;
    std::vector<HostState> requests(kBatch);
    std::vector<i64> seq_lens(kBatch, 0);

    // ---- Prefill every request -------------------------------------
    for (int r = 0; r < kBatch; ++r) {
        auto &host = requests[static_cast<std::size_t>(r)];
        auto id = vattn.allocReqId();
        ASSERT_TRUE(id.isOk());
        host.req_id = id.value();
        host.len = prompts[r];
        seq_lens[static_cast<std::size_t>(host.req_id)] = host.len;
        for (int layer = 0; layer < kLayers; ++layer) {
            host.k.emplace_back(
                tensor::Shape{2048, kKvHeads, kDim});
            host.v.emplace_back(
                tensor::Shape{2048, kKvHeads, kDim});
        }
    }
    ASSERT_TRUE(vattn.step(seq_lens).status.isOk());

    auto append_tokens = [&](HostState &host, i64 start, i64 count) {
        for (int layer = 0; layer < kLayers; ++layer) {
            auto view = vattn.requestView(layer, host.req_id);
            for (i64 t = start; t < start + count; ++t) {
                for (int h = 0; h < kKvHeads; ++h) {
                    float row[kDim];
                    for (int c = 0; c < kDim; ++c) {
                        // Quantize to fp16 so host and device agree
                        // bit-exactly.
                        row[c] = fp16BitsToFp32(fp32ToFp16Bits(
                            static_cast<float>(rng.uniform(-1, 1))));
                    }
                    view.storeK(t, h, row);
                    std::copy(
                        row, row + kDim,
                        host.k[static_cast<std::size_t>(layer)].row(
                            {t, h}));
                    for (int c = 0; c < kDim; ++c) {
                        row[c] = fp16BitsToFp32(fp32ToFp16Bits(
                            static_cast<float>(rng.uniform(-1, 1))));
                    }
                    view.storeV(t, h, row);
                    std::copy(
                        row, row + kDim,
                        host.v[static_cast<std::size_t>(layer)].row(
                            {t, h}));
                }
            }
        }
    };
    for (auto &host : requests) {
        append_tokens(host, 0, host.len);
    }

    // ---- Decode iterations -----------------------------------------
    tensor::HostTensor q(tensor::Shape{kQHeads, kDim});
    tensor::HostTensor out_device(q.shape());
    tensor::HostTensor out_host(q.shape());
    for (int iter = 0; iter < decodes; ++iter) {
        // Grow the KV backing for the incoming token.
        for (auto &host : requests) {
            ++host.len;
            seq_lens[static_cast<std::size_t>(host.req_id)] = host.len;
        }
        ASSERT_TRUE(vattn.step(seq_lens).status.isOk());
        vattn.computePhase(10 * kMsec);

        for (auto &host : requests) {
            append_tokens(host, host.len - 1, 1);
            q.fillRandom(rng);
            for (int layer = 0; layer < kLayers; ++layer) {
                auto view = vattn.requestView(layer, host.req_id);
                attn::flashDecode(attn_config, q, view, host.len,
                                  out_device);
                attn::HostKvView host_view(
                    &host.k[static_cast<std::size_t>(layer)],
                    &host.v[static_cast<std::size_t>(layer)]);
                attn::referenceDecode(attn_config, q, host_view,
                                      host.len, out_host);
                ASSERT_LT(out_host.maxAbsDiff(out_device), 2e-5f)
                    << "iter " << iter << " layer " << layer;
            }
        }
        ASSERT_TRUE(test::auditClean(vattn));
    }

    // ---- Completion + slot reuse -------------------------------------
    auto &done = requests[0];
    seq_lens[static_cast<std::size_t>(done.req_id)] = 0;
    ASSERT_TRUE(vattn.freeReqId(done.req_id).isOk());

    auto fresh = vattn.allocReqId();
    ASSERT_TRUE(fresh.isOk());
    EXPECT_EQ(fresh.value(), done.req_id); // deferred reclamation
    seq_lens[static_cast<std::size_t>(fresh.value())] = 40;
    auto stats = vattn.step(seq_lens);
    ASSERT_TRUE(stats.status.isOk());
    EXPECT_EQ(stats.handles_mapped, 0); // fully reused mappings

    // The reused slot serves a brand-new request correctly.
    HostState reborn;
    reborn.req_id = fresh.value();
    reborn.len = 40;
    for (int layer = 0; layer < kLayers; ++layer) {
        reborn.k.emplace_back(tensor::Shape{2048, kKvHeads, kDim});
        reborn.v.emplace_back(tensor::Shape{2048, kKvHeads, kDim});
    }
    append_tokens(reborn, 0, 40);
    q.fillRandom(rng);
    auto view = vattn.requestView(kLayers - 1, reborn.req_id);
    attn::flashDecode(attn_config, q, view, 40, out_device);
    attn::HostKvView host_view(&reborn.k.back(), &reborn.v.back());
    attn::referenceDecode(attn_config, q, host_view, 40, out_host);
    EXPECT_LT(out_host.maxAbsDiff(out_device), 2e-5f);
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndGroups, FunctionalServing,
    ::testing::Values(std::make_tuple(PageGroup::k64KB, false),
                      std::make_tuple(PageGroup::k128KB, false),
                      std::make_tuple(PageGroup::k256KB, false),
                      std::make_tuple(PageGroup::k2MB, false),
                      std::make_tuple(PageGroup::k2MB, true),
                      std::make_tuple(PageGroup::k64KB, true)));

} // namespace
} // namespace vattn
