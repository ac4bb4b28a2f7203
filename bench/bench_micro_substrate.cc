/**
 * @file
 * google-benchmark micro-benchmarks of the substrates themselves
 * (real wall time, not modelled time): functional attention kernels
 * over the three KV layouts, the buddy allocator, the page table and
 * the VMM driver fast paths. These guard against performance
 * regressions in the simulator itself.
 */

#include <benchmark/benchmark.h>

#include "attn/kernels.hh"
#include "bench_util.hh"
#include "common/rng.hh"
#include "cuvmm/driver.hh"
#include "gpu/buddy_allocator.hh"
#include "paged/paged_kv_cache.hh"

namespace vattn
{
namespace
{

/** Smoke mode (VATTN_BENCH_SMOKE=1) gives each case a token minimum
 *  run time, so the binary runs end to end in well under a second: its
 *  smoke run checks that it still works, not how fast. */
void
smokeSized(benchmark::internal::Benchmark *b)
{
    if (bench::smokeMode()) {
        b->MinTime(0.001);
    }
}

gpu::GpuDevice::Config
benchDeviceConfig()
{
    gpu::GpuDevice::Config config;
    config.mem_bytes = 1 * GiB;
    return config;
}

void
BM_FlashPrefillContiguous(benchmark::State &state)
{
    const auto len = static_cast<i64>(state.range(0));
    gpu::GpuDevice device(benchDeviceConfig());
    cuvmm::Driver driver(device);
    Addr k_ptr = 0;
    Addr v_ptr = 0;
    const u64 size = static_cast<u64>(len) * 4 * 32 * 2;
    driver.cudaMalloc(&k_ptr, size);
    driver.cudaMalloc(&v_ptr, size);
    tensor::Shape shape{len, 4, 32};
    attn::TensorKvView kv(
        tensor::VirtualTensor(&device, k_ptr,
                              tensor::Layout::contiguous(shape),
                              tensor::DType::kF16),
        tensor::VirtualTensor(&device, v_ptr,
                              tensor::Layout::contiguous(shape),
                              tensor::DType::kF16));
    Rng rng(1);
    tensor::HostTensor q(tensor::Shape{len, 8, 32});
    tensor::HostTensor out(q.shape());
    q.fillRandom(rng);
    std::vector<float> row(32, 0.5f);
    for (i64 t = 0; t < len; ++t) {
        for (int h = 0; h < 4; ++h) {
            kv.storeK(t, h, row.data());
            kv.storeV(t, h, row.data());
        }
    }
    attn::AttnConfig config{8, 4, 32, true, 0.0f};
    for (auto _ : state) {
        attn::flashPrefill(config, q, kv, len, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(BM_FlashPrefillContiguous)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Apply(smokeSized);

void
BM_FlashDecodePagedVsContiguous(benchmark::State &state)
{
    const bool paged = state.range(0) != 0;
    const i64 len = 512;
    gpu::GpuDevice device(benchDeviceConfig());
    cuvmm::Driver driver(device);

    paged::PagedKvCache::Config cache_config;
    cache_config.num_layers = 1;
    cache_config.num_kv_heads = 4;
    cache_config.head_dim = 32;
    cache_config.block_size = 16;
    cache_config.num_blocks = 64;
    paged::PagedKvCache cache(driver, cache_config);
    paged::RequestBlocks blocks(&cache.blockManager());
    blocks.ensureTokens(len).expectOk("bench blocks");
    auto paged_view = cache.view(blocks.blocks(), 0);

    Addr k_ptr = 0;
    Addr v_ptr = 0;
    const u64 size = static_cast<u64>(len) * 4 * 32 * 2;
    driver.cudaMalloc(&k_ptr, size);
    driver.cudaMalloc(&v_ptr, size);
    tensor::Shape shape{len, 4, 32};
    attn::TensorKvView flat_view(
        tensor::VirtualTensor(&device, k_ptr,
                              tensor::Layout::contiguous(shape),
                              tensor::DType::kF16),
        tensor::VirtualTensor(&device, v_ptr,
                              tensor::Layout::contiguous(shape),
                              tensor::DType::kF16));

    std::vector<float> row(32, 0.25f);
    for (i64 t = 0; t < len; ++t) {
        for (int h = 0; h < 4; ++h) {
            paged_view.storeK(t, h, row.data());
            paged_view.storeV(t, h, row.data());
            flat_view.storeK(t, h, row.data());
            flat_view.storeV(t, h, row.data());
        }
    }

    Rng rng(2);
    tensor::HostTensor q(tensor::Shape{8, 32});
    tensor::HostTensor out(q.shape());
    q.fillRandom(rng);
    attn::AttnConfig config{8, 4, 32, true, 0.0f};
    const attn::KvView &kv =
        paged ? static_cast<const attn::KvView &>(paged_view)
              : static_cast<const attn::KvView &>(flat_view);
    for (auto _ : state) {
        attn::flashDecode(config, q, kv, len, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel(paged ? "paged" : "contiguous");
}
BENCHMARK(BM_FlashDecodePagedVsContiguous)->Arg(0)->Arg(1)->Apply(smokeSized);

void
BM_BuddyAllocFree(benchmark::State &state)
{
    const u64 block = static_cast<u64>(state.range(0));
    gpu::BuddyAllocator buddy(1 * GiB);
    for (auto _ : state) {
        auto addr = buddy.alloc(block);
        benchmark::DoNotOptimize(addr);
        buddy.free(addr.value(), block).expectOk("bench free");
    }
}
BENCHMARK(BM_BuddyAllocFree)
    ->Arg(64 * KiB)
    ->Arg(2 * MiB)
    ->Apply(smokeSized);

void
BM_DriverMapUnmap64KB(benchmark::State &state)
{
    gpu::GpuDevice device(benchDeviceConfig());
    cuvmm::Driver driver(device);
    Addr va = 0;
    driver.vMemReserve(&va, 64 * KiB);
    for (auto _ : state) {
        cuvmm::MemHandle handle = cuvmm::kInvalidHandle;
        driver.vMemCreate(&handle, PageGroup::k64KB);
        driver.vMemMap(va, handle);
        driver.vMemRelease(handle);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DriverMapUnmap64KB)->Apply(smokeSized);

void
BM_PageTableTranslate(benchmark::State &state)
{
    gpu::GpuDevice device(benchDeviceConfig());
    cuvmm::Driver driver(device);
    // 256 scattered 64KB mappings.
    std::vector<Addr> vas;
    for (int i = 0; i < 256; ++i) {
        Addr va = 0;
        driver.vMemReserve(&va, 64 * KiB);
        cuvmm::MemHandle handle = cuvmm::kInvalidHandle;
        driver.vMemCreate(&handle, PageGroup::k64KB);
        driver.vMemMap(va, handle);
        vas.push_back(va);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr va = vas[i++ & 255] + 1234;
        benchmark::DoNotOptimize(device.pageTable().translate(va));
    }
}
BENCHMARK(BM_PageTableTranslate)->Apply(smokeSized);

} // namespace
} // namespace vattn

int
main(int argc, char **argv)
{
    // Manual BENCHMARK_MAIN so the run also emits the machine-readable
    // report every bench binary writes (google-benchmark prints its
    // own wall-time table; the JSON records that the suite ran).
    vattn::bench::JsonReport json("micro_substrate");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    json.metric("benchmarks_run",
                static_cast<vattn::i64>(
                    benchmark::RunSpecifiedBenchmarks()));
    benchmark::Shutdown();
    return 0;
}
