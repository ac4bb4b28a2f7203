/**
 * @file
 * priceIteration against hand-composed sums of the kernel and CPU
 * overhead models: pure prefill, pure decode, a hybrid iteration,
 * all-reduce overlap (fully and partly hidden) and a plan that lost a
 * chunk to preemption but is still charged CPU for the planned batch.
 * Block counts are worked out by hand for 256-token FA2 blocks; a
 * hybrid iteration pays the CPU scheduler base once.
 */

#include <gtest/gtest.h>

#include <vector>

#include "perf/iteration_cost.hh"

namespace vattn::perf
{
namespace
{

constexpr BackendKind kKind = BackendKind::kFa2Paged;
constexpr i64 kBlock = 256;

class IterationCostTest : public ::testing::Test
{
  protected:
    IterationCost
    price(const std::vector<ChunkShape> &prefills,
          const std::vector<i64> &decodes, i64 planned_prefills,
          i64 planned_decodes, bool overlap = false) const
    {
        return priceIteration(kernel_, overhead_, kKind, kBlock, overlap,
                              {prefills, decodes, planned_prefills,
                               planned_decodes});
    }

    // Llama-3-8B at TP-2: every iteration pays an all-reduce.
    KernelModel kernel_{GpuSpec::a100(), ModelSpec::llama3_8B(), 2};
    OverheadModel overhead_;
};

TEST_F(IterationCostTest, PurePrefill)
{
    // A fresh 1000-token prompt (4 blocks) and a 512-token chunk after
    // 2048 computed tokens (blocks 8 -> 10): 6 new blocks.
    const auto cost = price({{1000, 0}, {512, 2048}}, {}, 2, 0);
    EXPECT_EQ(cost.attention_ns,
              kernel_.prefillAttention(kKind, 1000, 1000) +
                  kernel_.prefillAttention(kKind, 512, 2560));
    EXPECT_EQ(cost.linear_ns, kernel_.prefillLinear(1512));
    EXPECT_GT(cost.comm_exposed_ns, 0u);
    EXPECT_EQ(cost.comm_exposed_ns, kernel_.commTime(1512));
    EXPECT_EQ(cost.comm_hidden_ns, 0u);
    EXPECT_EQ(cost.cpu_ns, overhead_.prefillCpu(kKind, 2, 6));
    EXPECT_EQ(cost.gpuNs(), cost.attention_ns + cost.linear_ns +
                                cost.comm_exposed_ns);
}

TEST_F(IterationCostTest, PureDecode)
{
    // Blocks 2 + 4 + 1: the padded table is 4 wide, the CSR one 7 long.
    const auto cost = price({}, {300, 1000, 17}, 0, 3);
    // A uniform model prices the summed KV length.
    const i64 total_kv = 1317;
    EXPECT_EQ(cost.attention_ns,
              kernel_.decodeAttention(kKind, {&total_kv, 1}));
    EXPECT_EQ(cost.linear_ns, kernel_.decodeLinear(3));
    EXPECT_EQ(cost.comm_exposed_ns, kernel_.commTime(3));
    EXPECT_EQ(cost.comm_hidden_ns, 0u);
    EXPECT_EQ(cost.cpu_ns, overhead_.decodeCpu(kKind, 3, 4, 7));
}

TEST_F(IterationCostTest, HybridChunkRidesWithDecodes)
{
    // One 512-token chunk (2 blocks) plus decodes of 2 + 4 blocks;
    // linear and comm see 512 + 2 flat tokens.
    const auto cost = price({{512, 0}}, {300, 1000}, 1, 2);
    const i64 total_kv = 1300;
    EXPECT_EQ(cost.attention_ns,
              kernel_.prefillAttention(kKind, 512, 512) +
                  kernel_.decodeAttention(kKind, {&total_kv, 1}));
    EXPECT_EQ(cost.linear_ns, kernel_.prefillLinear(514));
    EXPECT_EQ(cost.comm_exposed_ns, kernel_.commTime(514));
    EXPECT_EQ(cost.cpu_ns, overhead_.prefillCpu(kKind, 1, 2) +
                               overhead_.decodeCpu(kKind, 2, 4, 6) -
                               OverheadModel::kBaseIterNs);
}

TEST_F(IterationCostTest, OverlapHidesAllOfTheComm)
{
    const auto serial = price({}, {300, 1000, 17}, 0, 3);
    const auto overlapped = price({}, {300, 1000, 17}, 0, 3, true);
    const TimeNs comm = kernel_.commTime(3);
    ASSERT_LT(comm, serial.attention_ns + serial.linear_ns);
    EXPECT_EQ(overlapped.comm_exposed_ns, 0u);
    EXPECT_EQ(overlapped.comm_hidden_ns, comm);
    EXPECT_EQ(overlapped.commNs(), serial.commNs());
    EXPECT_EQ(overlapped.gpuNs(), serial.attention_ns + serial.linear_ns);
    EXPECT_EQ(overlapped.cpu_ns, serial.cpu_ns);
}

TEST_F(IterationCostTest, OverlapHidesOnlyWhatComputeCovers)
{
    // A 1 GB/s link: the all-reduce outlasts the compute it hides behind.
    const KernelModel slow(GpuSpec::a100(), ModelSpec::llama3_8B(), 2,
                           NcclSpec::legacy(1e9));
    const std::vector<ChunkShape> chunk = {{1000, 0}};
    const auto cost = priceIteration(slow, overhead_, kKind, kBlock, true,
                                     {chunk, {}, 1, 0});
    const TimeNs compute = slow.prefillAttention(kKind, 1000, 1000) +
                           slow.prefillLinear(1000);
    const TimeNs comm = slow.commTime(1000);
    ASSERT_GT(comm, compute);
    EXPECT_EQ(cost.comm_hidden_ns, compute);
    EXPECT_EQ(cost.comm_exposed_ns, comm - compute);
    EXPECT_EQ(cost.gpuNs(), comm);
}

TEST_F(IterationCostTest, PreemptedChunkKeepsThePlannedCpuCharge)
{
    // The plan held two chunks and two decodes; ensure preempted the
    // second chunk. GPU time covers the survivors, but the CPU still
    // counts two prompts (and the survivor's 2 new blocks).
    const auto cost = price({{512, 0}}, {300, 1000}, 2, 2);
    const auto survivors_only = price({{512, 0}}, {300, 1000}, 1, 2);
    EXPECT_EQ(cost.gpuNs(), survivors_only.gpuNs());
    EXPECT_EQ(cost.cpu_ns, overhead_.prefillCpu(kKind, 2, 2) +
                               overhead_.decodeCpu(kKind, 2, 4, 6) -
                               OverheadModel::kBaseIterNs);
    EXPECT_EQ(cost.cpu_ns,
              survivors_only.cpu_ns + OverheadModel::kPerRequestNs);

    // Everything preempted: no GPU work, one planned prompt's CPU.
    const auto emptied = price({}, {}, 1, 0);
    EXPECT_EQ(emptied.gpuNs(), 0u);
    EXPECT_EQ(emptied.cpu_ns, overhead_.prefillCpu(kKind, 1, 0));
}

} // namespace
} // namespace vattn::perf
