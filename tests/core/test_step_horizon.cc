/**
 * @file
 * vAttention's growth horizon, brute-forced: on seeded random states
 * (growth, frees into the deferred-reclamation cache, prefix-aliased
 * slots, sliding-window layers whose dead groups unmap, background
 * prefetch, eager warming and watermark reclamation), nextWorkLen(req,
 * len) must equal the smallest length >= len at which the runtime's
 * own no-op predicate, stepIsNoop, turns false. Under overlap
 * allocation that predicate includes §6.1.1's one-ahead rule:
 * computePhase maps len + 1's group from the length step() recorded,
 * so a horizon that ignored it would let the engine skip the step
 * that arms the prefetch and push the map onto the critical path.
 */

#include <algorithm>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "common/prefix_hash.hh"
#include "common/rng.hh"
#include "core/vattention.hh"
#include "test_util.hh"

namespace vattn::core
{
namespace
{

/** 2 layers, 8 heads, dim 64, fp16: 1KB/token/buffer, so a 64KB
 *  page-group holds 64 tokens and boundaries come often. */
constexpr i64 kTokensPerGroup = 64;
constexpr i64 kMaxContext = 2048;

struct HorizonCase
{
    const char *name;
    bool overlap;
    bool window;
    bool prefix;
};

/** Names the case in test listings (the default prints raw bytes,
 *  pointer and padding included, which differ between builds). */
void
PrintTo(const HorizonCase &c, std::ostream *os)
{
    *os << c.name;
}

Config
configFor(const HorizonCase &c)
{
    Config config;
    config.num_layers = 2;
    config.num_kv_heads = 8;
    config.head_dim = 64;
    config.bytes_per_elem = 2;
    config.max_batch_size = 6;
    config.max_context_len = kMaxContext;
    config.page_group = PageGroup::k64KB;
    config.overlap_allocation = c.overlap;
    config.eager_allocation = c.overlap;
    config.deferred_reclamation = true;
    config.prefix_caching = c.prefix;
    // Tight enough that steps steal cached groups and the background
    // reclaims below the watermark.
    config.phys_budget_bytes = 24 * MiB;
    if (c.window) {
        config.layer_window_tokens = {0, 150}; // not group-aligned
    }
    return config;
}

/** The reference: scan upward from @p len for the first length whose
 *  step (with the prefetch it arms) would do work. */
i64
bruteNextWorkLen(const VAttention &vattn, int req, i64 len)
{
    i64 at = len;
    while (vattn.stepIsNoop(req, at)) {
        ++at;
    }
    return at;
}

class StepHorizon : public ::testing::TestWithParam<HorizonCase>
{
  protected:
    StepHorizon() : device_(deviceConfig()), driver_(device_) {}

    static gpu::GpuDevice::Config
    deviceConfig()
    {
        gpu::GpuDevice::Config config;
        config.mem_bytes = 64 * MiB;
        return config;
    }

    gpu::GpuDevice device_;
    cuvmm::Driver driver_;
};

TEST_P(StepHorizon, NextWorkLenIsTheFirstLengthThatIsNotANoop)
{
    VAttention vattn(driver_, configFor(GetParam()));
    std::vector<i32> prompt(400);
    for (std::size_t i = 0; i < prompt.size(); ++i) {
        prompt[i] = static_cast<i32>(i * 13 + 1);
    }
    const PrefixKey key{prompt.data(), static_cast<i64>(prompt.size())};

    // reqId -> the length its last step listed (-1: not leased).
    std::vector<i64> lens(6, -1);
    std::vector<std::pair<int, i64>> active;
    Rng rng(777);
    int aliased = 0;
    int checks = 0;
    for (int op = 0; op < 500; ++op) {
        const i64 roll = rng.uniformInt(0, 19);
        const auto req = static_cast<std::size_t>(rng.uniformInt(0, 5));
        if (roll < 3) {
            // Lease: through the prefix cache when it is on.
            if (GetParam().prefix) {
                auto lease = vattn.allocReqIdWithPrefix(key, key.size - 1);
                if (lease.isOk()) {
                    const auto id =
                        static_cast<std::size_t>(lease.value().slot);
                    lens[id] = lease.value().cached_tokens;
                    aliased += lease.value().cached_tokens > 0 ? 1 : 0;
                }
            } else if (auto id = vattn.allocReqId(); id.isOk()) {
                lens[static_cast<std::size_t>(id.value())] = 0;
            }
        } else if (roll < 5 && lens[req] >= 0) {
            ASSERT_TRUE(vattn.freeReqId(static_cast<int>(req)).isOk());
            lens[req] = -1;
        } else {
            // One step over every leased request: one grows by a token
            // or a few, sometimes by a whole prompt chunk.
            if (lens[req] >= 0) {
                lens[req] += roll < 8 ? rng.uniformInt(30, 300)
                                      : rng.uniformInt(0, 2);
                lens[req] = std::min(lens[req], kMaxContext);
            }
            active.clear();
            for (std::size_t r = 0; r < lens.size(); ++r) {
                if (lens[r] >= 0) {
                    active.emplace_back(static_cast<int>(r), lens[r]);
                }
            }
            if (!vattn.step(active).status.isOk()) {
                // Out of memory: release the longest request.
                const auto longest = static_cast<std::size_t>(
                    std::max_element(lens.begin(), lens.end()) -
                    lens.begin());
                ASSERT_TRUE(
                    vattn.freeReqId(static_cast<int>(longest)).isOk());
                lens[longest] = -1;
                continue;
            }
            if (GetParam().prefix) {
                for (const auto &[r, len] : active) {
                    vattn.registerPrefix(r, key, std::min(len, key.size));
                }
            }
            // A background window of a few maps: prefetch, eager
            // warming and reclamation all move state between steps.
            vattn.computePhase(rng.uniformInt(0, 3) * 20'000);
        }
        for (std::size_t r = 0; r < lens.size(); ++r) {
            if (lens[r] < 0) {
                continue;
            }
            const int id = static_cast<int>(r);
            for (const i64 len :
                 {lens[r], lens[r] + rng.uniformInt(0, 100),
                  rng.uniformInt(0, kMaxContext)}) {
                ASSERT_EQ(vattn.nextWorkLen(id, len),
                          bruteNextWorkLen(vattn, id, len))
                    << "reqId " << id << " at " << len << " after op "
                    << op;
                ++checks;
            }
        }
    }
    EXPECT_GT(checks, 2000);
    if (GetParam().prefix) {
        EXPECT_GT(aliased, 0) << "no request ever hit the prefix cache";
    }
    EXPECT_TRUE(test::auditClean(vattn));
}

TEST_P(StepHorizon, OneAheadRuleEndsTheHorizonAtTheLastBackedLength)
{
    // A request stepped to 100 tokens holds two 64-token groups per
    // buffer, backing 128 tokens, so steps up to 128 map nothing. With
    // overlap allocation the step at 128 still counts as work:
    // computePhase grows from the length it records toward 129. The
    // horizon ends at 128 with overlap on and at 129 without.
    VAttention vattn(driver_, configFor(GetParam()));
    const int req = vattn.allocReqId().value();
    const std::pair<int, i64> at100[] = {{req, 100}};
    ASSERT_TRUE(vattn.step(at100).status.isOk());
    const i64 backed = 2 * kTokensPerGroup;
    EXPECT_TRUE(vattn.stepIsNoop(req, backed - 1));
    if (GetParam().overlap) {
        // At 128 the step maps nothing, but computePhase would then
        // grow toward 129: that step must not be skipped.
        EXPECT_FALSE(vattn.stepIsNoop(req, backed));
        EXPECT_EQ(vattn.nextWorkLen(req, 100), backed);
    } else {
        EXPECT_TRUE(vattn.stepIsNoop(req, backed));
        EXPECT_EQ(vattn.nextWorkLen(req, 100), backed + 1);
    }
    EXPECT_FALSE(vattn.stepIsNoop(req, backed + 1));
    // A reqId that is not active answers len: the step must run.
    EXPECT_EQ(vattn.nextWorkLen(req + 1, 42), 42);
    EXPECT_FALSE(vattn.stepIsNoop(req + 1, 42));
}

INSTANTIATE_TEST_SUITE_P(
    States, StepHorizon,
    ::testing::Values(HorizonCase{"plain", false, false, false},
                      HorizonCase{"overlap", true, false, false},
                      HorizonCase{"overlap_window", true, true, false},
                      HorizonCase{"window", false, true, false},
                      HorizonCase{"overlap_prefix", true, false, true}),
    [](const auto &info) { return info.param.name; });

} // namespace
} // namespace vattn::core
