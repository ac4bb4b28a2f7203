/**
 * @file
 * Sliding-window long-context study. Mistral-style models interleave
 * full-attention and sliding-window (SWA) layers 1:1; a windowed
 * layer attends to at most W tokens, so its KV beyond the window is
 * dead weight. With per-layer heterogeneous geometries both backends
 * reclaim that tail — vAttention unmaps dead leading page-groups,
 * the paged backend frees dead leading blocks from the SWA layer
 * group's pool — so resident KV stops growing with context on half
 * the layers.
 *
 * Sweeps 32K-128K prompts and reports (a) resident KV bytes per
 * request, uniform vs 1:1-interleaved, on both backends, and (b)
 * engine throughput on the long-context trace. At 64K with a 4K
 * window the interleaved model must hold >= 40% fewer KV bytes on
 * both backends; the bench aborts if that bar regresses.
 */

#include "bench_util.hh"

#include "common/logging.hh"
#include "serving/lockstep_backend.hh"
#include "serving/workload.hh"

using namespace vattn;
using namespace vattn::bench;

namespace
{

constexpr i64 kWindowTokens = 4096; ///< Mistral-7B's SWA width
constexpr u64 kBudgetBytes = 48ULL * GiB;

/** Resident KV bytes of one request at @p tokens context under the
 *  vAttention backend (dead window tails unmapped by ensure()). */
u64
vattnResidentBytes(const perf::ModelSpec &model, i64 tokens)
{
    serving::VAttentionBackend backend(model, 1, {}, kBudgetBytes);
    auto slot = backend.allocSlot();
    fatal_if(!slot.isOk(), "allocSlot failed");
    const auto ensured = backend.ensure({{slot.value(), tokens}});
    fatal_if(!ensured.isOk(), "ensure failed at ", tokens, " tokens");
    return backend.slotPhysBytes(slot.value());
}

/** Same measurement under the paged backend (dead leading blocks
 *  freed from each sliding layer group's pool). */
u64
pagedResidentBytes(const perf::ModelSpec &model, i64 tokens)
{
    serving::PagedBackend backend(model, 1, 16, kBudgetBytes);
    auto slot = backend.allocSlot();
    fatal_if(!slot.isOk(), "allocSlot failed");
    const auto ensured = backend.ensure({{slot.value(), tokens}});
    fatal_if(!ensured.isOk(), "ensure failed at ", tokens, " tokens");
    return backend.slotPhysBytes(slot.value());
}

} // namespace

int
main()
{
    banner("Sliding-window long context: per-layer KV geometries",
           "Yi-6B vs Mistral-style 1:1 full/SWA-4K interleave; "
           "resident KV per request and offline throughput, both "
           "backends; A100");
    JsonReport json("sliding_window_longctx");

    const auto uniform = perf::ModelSpec::yi6B();
    const auto interleaved =
        uniform.withSlidingWindowInterleave(kWindowTokens);

    const std::vector<i64> sweep =
        smokeMode() ? std::vector<i64>{64 * 1024}
                    : std::vector<i64>{32 * 1024, 64 * 1024, 96 * 1024,
                                       128 * 1024};

    // ---- (a) resident KV bytes per request --------------------------
    Table bytes_table({"backend", "prompt", "uniform KV GB",
                       "interleaved KV GB", "saved"});
    double vattn_saved_64k = 0;
    double paged_saved_64k = 0;
    for (const i64 tokens : sweep) {
        const u64 v_uni = vattnResidentBytes(uniform, tokens);
        const u64 v_swa = vattnResidentBytes(interleaved, tokens);
        const u64 p_uni = pagedResidentBytes(uniform, tokens);
        const u64 p_swa = pagedResidentBytes(interleaved, tokens);
        const double v_saved =
            1.0 - static_cast<double>(v_swa) / static_cast<double>(v_uni);
        const double p_saved =
            1.0 - static_cast<double>(p_swa) / static_cast<double>(p_uni);
        if (tokens == 64 * 1024) {
            vattn_saved_64k = v_saved;
            paged_saved_64k = p_saved;
        }
        const std::string prompt_label =
            std::to_string(tokens / 1024) + "K";
        bytes_table.addRow({"vAttention", prompt_label,
                            Table::num(static_cast<double>(v_uni) / 1e9,
                                       2),
                            Table::num(static_cast<double>(v_swa) / 1e9,
                                       2),
                            Table::num(100.0 * v_saved, 1) + "%"});
        bytes_table.addRow({"Paged", prompt_label,
                            Table::num(static_cast<double>(p_uni) / 1e9,
                                       2),
                            Table::num(static_cast<double>(p_swa) / 1e9,
                                       2),
                            Table::num(100.0 * p_saved, 1) + "%"});
    }
    json.printTable("resident KV per request (window " +
                        std::to_string(kWindowTokens) + " tokens, " +
                        interleaved.name + ")",
                    bytes_table);
    json.metric("vattn_kv_saved_64k_pct", 100.0 * vattn_saved_64k);
    json.metric("paged_kv_saved_64k_pct", 100.0 * paged_saved_64k);
    std::printf("64K-token request: interleaved model holds %.1f%% "
                "(vAttention) / %.1f%% (paged) less resident KV\n\n",
                100.0 * vattn_saved_64k, 100.0 * paged_saved_64k);
    // The tentpole acceptance bar: half the layers windowed at 4K of
    // 64K context must shed >= 40% of resident KV on both backends.
    panic_if(vattn_saved_64k < 0.40,
             "vAttention KV saving at 64K below the 40% bar: ",
             100.0 * vattn_saved_64k, "%");
    panic_if(paged_saved_64k < 0.40,
             "paged KV saving at 64K below the 40% bar: ",
             100.0 * paged_saved_64k, "%");

    // ---- (b) offline throughput on the long-context trace -----------
    const perf::BackendKind kinds[] = {
        perf::BackendKind::kFa2Paged,
        perf::BackendKind::kFa2VAttention,
    };
    Table run_table({"backend", "model", "req/min", "preempt",
                     "dropped"});
    for (const auto kind : kinds) {
        for (const auto *model : {&uniform, &interleaved}) {
            auto trace = serving::longContextTrace(smokeN(64, 8));
            serving::assignOfflineArrivals(trace);
            serving::Engine engine(
                makeEngineConfig({*model, 1}, kind));
            const auto report = engine.run(std::move(trace));
            run_table.addRow({
                toString(kind),
                model->name,
                Table::num(report.requestsPerMinute(), 2),
                std::to_string(report.preemptions),
                std::to_string(report.dropped_requests),
            });
            json.metric(std::string(toString(kind)) + "/" +
                            model->name + "/req_per_min",
                        report.requestsPerMinute());
        }
    }
    json.printTable("long-context trace (32K-128K prompts, offline)",
                    run_table);
    std::printf("\nwindowed layers cap their KV at W tokens, so the "
                "interleaved model admits larger long-context batches "
                "on the same budget.\n");
    return 0;
}
