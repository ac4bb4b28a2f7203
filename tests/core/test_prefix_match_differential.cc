/**
 * @file
 * Differential test of VAttention::matchPrefix. A seeded trace of
 * prompts that share prefixes drives prefix-aware admission,
 * registration, decode growth, frees, plain allocations and
 * background refill through a pool small enough that growth steals
 * cached page-groups; one variant adds a sliding-window layer whose
 * trims void a slot's shareable prefix. After every op each probe's
 * PrefixHit must equal a brute-force reference computed from the
 * token ids the test keeps per slot: the longest common prefix, bounded
 * by the intact leading page-groups the slot still maps, the partial
 * tail only when the whole chain matched and its group is mapped; then
 * a cached source on ties, then the lowest slot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/prefix_hash.hh"
#include "common/rng.hh"
#include "core/vattention.hh"
#include "test_util.hh"

namespace vattn::core
{
namespace
{

constexpr int kSlots = 6;
constexpr i64 kMaxContext = 2048;
constexpr int kOps = 400;
constexpr std::size_t kMaxPrompts = 24;

/** 2 layers, 8 heads, dim 64, fp16: 1KiB/token/buffer, so a 64KB
 *  page-group holds 64 tokens; 4 buffers; a 6MB pool holds 24 group
 *  rows, well short of six running requests. */
Config
matchConfig(i64 window)
{
    Config config;
    config.num_layers = 2;
    config.num_kv_heads = 8;
    config.head_dim = 64;
    config.bytes_per_elem = 2;
    config.max_batch_size = kSlots;
    config.max_context_len = kMaxContext;
    config.page_group = PageGroup::k64KB;
    config.eager_allocation = false;
    config.overlap_allocation = false;
    config.deferred_reclamation = true;
    config.prefix_caching = true;
    config.phys_budget_bytes = 6 * MiB;
    config.reclaim_low_watermark = 0.3;
    if (window > 0) {
        config.layer_window_tokens = {0, window};
    }
    return config;
}

PrefixKey
keyFor(const std::vector<i32> &ids)
{
    return PrefixKey{ids.data(), static_cast<i64>(ids.size())};
}

/**
 * The reference: every active or cached slot's held ids against the
 * probe. A slot's prefix is bounded by the leading groups mapped in
 * every buffer: none once a window trim unmapped a leading group, and
 * no more than the shortest buffer of a recycled slot whose sliding
 * buffers restarted from empty.
 */
PrefixHit
referenceMatch(const VAttention &vattn,
               const std::vector<std::vector<i32>> &held,
               const std::vector<i32> &probe)
{
    const i64 tpg = vattn.geometry().tokensPerGroup();
    PrefixHit best;
    bool best_cached = false;
    for (int slot = 0; slot < kSlots; ++slot) {
        const SlotState state = vattn.slots().state(slot);
        if (state == SlotState::kFree) {
            continue;
        }
        const std::vector<i32> &ids = held[static_cast<std::size_t>(slot)];
        const i64 intact = vattn.prefixGroupsMapped(slot);
        const i64 size = static_cast<i64>(ids.size());
        const auto diverge = std::mismatch(
            ids.begin(), ids.begin() + std::min(ids.size(), probe.size()),
            probe.begin());
        const i64 common = diverge.first - ids.begin();
        const i64 full = size / tpg;
        i64 groups = std::min({common / tpg, full, intact});
        i64 tokens = groups * tpg;
        if (size > full * tpg && common == size && intact > full) {
            tokens = size;
        }
        const bool cached = state == SlotState::kCached;
        if (tokens > best.tokens ||
            (tokens == best.tokens && tokens > 0 && !best_cached &&
             cached)) {
            best.slot = slot;
            best.groups = groups;
            best.tokens = tokens;
            best_cached = cached;
        }
    }
    if (best.tokens == 0) {
        return PrefixHit{};
    }
    return best;
}

/** Seeded prompts drawn from three shared bases: whole or partial
 *  bases, bases plus a private suffix, and continuations of earlier
 *  prompts (which match their parent's partial tail). */
class PromptSource
{
  public:
    explicit PromptSource(Rng &rng) : rng_(rng)
    {
        for (i64 len : {5 * 64 + 17, 3 * 64, 2 * 64 + 40}) {
            bases_.push_back(fresh(len));
        }
    }

    const std::vector<std::vector<i32>> &prompts() const
    {
        return prompts_;
    }

    /** An earlier prompt again, or a new one. */
    const std::vector<i32> &
    draw()
    {
        if (!prompts_.empty() && rng_.uniformInt(0, 1) == 0) {
            return prompts_[static_cast<std::size_t>(rng_.uniformInt(
                0, static_cast<i64>(prompts_.size()) - 1))];
        }
        std::vector<i32> prompt;
        const int kind = static_cast<int>(rng_.uniformInt(0, 9));
        if (kind < 4 && !prompts_.empty()) {
            prompt = prompts_[static_cast<std::size_t>(rng_.uniformInt(
                0, static_cast<i64>(prompts_.size()) - 1))];
        } else {
            const auto &base = bases_[static_cast<std::size_t>(
                rng_.uniformInt(0, static_cast<i64>(bases_.size()) - 1))];
            prompt.assign(base.begin(),
                          base.begin() + rng_.uniformInt(
                                             1, static_cast<i64>(base.size())));
        }
        if (kind < 4 || kind >= 7) {
            const auto suffix = fresh(rng_.uniformInt(1, 150));
            prompt.insert(prompt.end(), suffix.begin(), suffix.end());
        }
        prompt.resize(std::min<std::size_t>(prompt.size(), 700));
        if (prompts_.size() < kMaxPrompts) {
            prompts_.push_back(std::move(prompt));
            return prompts_.back();
        }
        auto &slot = prompts_[static_cast<std::size_t>(
            rng_.uniformInt(0, static_cast<i64>(kMaxPrompts) - 1))];
        slot = std::move(prompt);
        return slot;
    }

  private:
    std::vector<i32>
    fresh(i64 n)
    {
        std::vector<i32> ids(static_cast<std::size_t>(n));
        for (i32 &id : ids) {
            id = static_cast<i32>(rng_.uniformInt(0, 49999));
        }
        return ids;
    }

    Rng &rng_;
    std::vector<std::vector<i32>> bases_;
    std::vector<std::vector<i32>> prompts_;
};

struct Coverage
{
    i64 tail_hits = 0;     ///< probes matched into a partial tail group
    i64 trimmed_slots = 0; ///< ops after which a slot held no intact
                           ///  prefix but still mapped groups
    i64 refused = 0;       ///< steps refused for lack of memory
};

class PrefixMatchDifferential
    : public ::testing::TestWithParam<std::pair<i64, u64>>
{
  protected:
    PrefixMatchDifferential() : device_(deviceConfig()), driver_(device_) {}

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

/** Steps every active slot to its length; a refused step preempts
 *  @p grown (its slot is freed, keeping its chain as a cached entry). */
bool
stepOrPreempt(VAttention &vattn, std::vector<i64> &lens, int grown,
              Coverage &coverage)
{
    if (vattn.step(lens).status.isOk()) {
        return true;
    }
    ++coverage.refused;
    lens[static_cast<std::size_t>(grown)] = 0;
    vattn.freeReqId(grown).expectOk("preempt");
    return false;
}

void
expectMatchesReference(const VAttention &vattn,
                       const std::vector<std::vector<i32>> &held,
                       const std::vector<std::vector<i32>> &probes,
                       const std::string &op, Coverage &coverage)
{
    const i64 tpg = vattn.geometry().tokensPerGroup();
    for (int slot = 0; slot < kSlots; ++slot) {
        if (vattn.slots().state(slot) != SlotState::kFree &&
            vattn.prefixGroupsMapped(slot) == 0 &&
            vattn.mappedHandles(slot) > 0) {
            ++coverage.trimmed_slots;
        }
    }
    for (std::size_t p = 0; p < probes.size(); ++p) {
        const PrefixHit want = referenceMatch(vattn, held, probes[p]);
        const PrefixHit got = vattn.matchPrefix(keyFor(probes[p]));
        ASSERT_EQ(got.slot, want.slot) << op << ", probe " << p;
        ASSERT_EQ(got.groups, want.groups) << op << ", probe " << p;
        ASSERT_EQ(got.tokens, want.tokens) << op << ", probe " << p;
        if (want.tokens % tpg != 0) {
            ++coverage.tail_hits;
        }
    }
}

TEST_P(PrefixMatchDifferential, MatchesTheBruteForceReference)
{
    const auto [window, seed] = GetParam();
    VAttention vattn(driver_, matchConfig(window));
    Rng rng(seed);
    PromptSource source(rng);
    std::vector<std::vector<i32>> held(kSlots); // each slot's chain ids
    std::vector<i64> lens(kSlots, 0);
    Coverage coverage;

    const auto activeSlot = [&]() {
        std::vector<int> active;
        for (int slot = 0; slot < kSlots; ++slot) {
            if (lens[static_cast<std::size_t>(slot)] > 0) {
                active.push_back(slot);
            }
        }
        return active.empty()
                   ? -1
                   : active[static_cast<std::size_t>(rng.uniformInt(
                         0, static_cast<i64>(active.size()) - 1))];
    };

    for (int op = 0; op < kOps; ++op) {
        const i64 roll = rng.uniformInt(0, 99);
        std::string name;
        if (roll < 40) {
            // Prefix-aware admission, prefill, then registration of the
            // whole prompt, as the serving engine does.
            const std::vector<i32> prompt = source.draw();
            const i64 size = static_cast<i64>(prompt.size());
            auto lease = vattn.allocReqIdWithPrefix(keyFor(prompt),
                                                    size - 1);
            name = "admit";
            if (lease.isOk()) {
                const int slot = lease.value().slot;
                const i64 cached = lease.value().cached_tokens;
                held[static_cast<std::size_t>(slot)].assign(
                    prompt.begin(), prompt.begin() + cached);
                lens[static_cast<std::size_t>(slot)] = size;
                if (stepOrPreempt(vattn, lens, slot, coverage)) {
                    vattn.registerPrefix(slot, keyFor(prompt), size);
                    held[static_cast<std::size_t>(slot)] = prompt;
                }
            }
        } else if (roll < 60) {
            name = "decode";
            const int slot = activeSlot();
            if (slot >= 0) {
                auto &len = lens[static_cast<std::size_t>(slot)];
                len = std::min(kMaxContext, len + rng.uniformInt(1, 200));
                stepOrPreempt(vattn, lens, slot, coverage);
            }
        } else if (roll < 85) {
            name = "free";
            const int slot = activeSlot();
            if (slot >= 0) {
                lens[static_cast<std::size_t>(slot)] = 0;
                vattn.freeReqId(slot).expectOk("free");
            }
        } else if (roll < 93) {
            // A request outside the prefix store: no chain.
            name = "plain alloc";
            auto slot = vattn.allocReqId();
            if (slot.isOk()) {
                held[static_cast<std::size_t>(slot.value())].clear();
                lens[static_cast<std::size_t>(slot.value())] =
                    rng.uniformInt(1, 300);
                stepOrPreempt(vattn, lens, slot.value(), coverage);
            }
        } else {
            name = "refill";
            vattn.computePhase(1'000'000);
        }
        const std::string what =
            "op " + std::to_string(op) + " (" + name + ")";
        // The audit checks every chain against the slot's mapped
        // prefix, the invariant the match relies on.
        ASSERT_TRUE(test::auditClean(vattn)) << what;
        expectMatchesReference(vattn, held, source.prompts(), what,
                               coverage);
        if (::testing::Test::HasFatalFailure()) {
            return;
        }
    }

    // The trace reached every path the reference models.
    const RuntimeStats &stats = vattn.stats();
    EXPECT_GT(stats.prefix_hits, 0);
    EXPECT_GT(stats.prefix_inplace_hits, 0);
    EXPECT_GT(stats.prefix_aliased_handles, 0);
    EXPECT_GT(stats.reclaimed_handles, 0);
    EXPECT_GT(coverage.tail_hits, 0);
    EXPECT_GT(coverage.refused, 0);
    if (window > 0) {
        EXPECT_GT(coverage.trimmed_slots, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Traces, PrefixMatchDifferential,
    ::testing::Values(std::pair<i64, u64>{0, 1}, std::pair<i64, u64>{0, 2},
                      std::pair<i64, u64>{400, 1},
                      std::pair<i64, u64>{400, 2}),
    [](const auto &info) {
        return std::string(info.param.first > 0 ? "Window" : "Uniform") +
               "Seed" + std::to_string(info.param.second);
    });

} // namespace
} // namespace vattn::core
