/**
 * @file
 * bench_compile_cost: the compile fast path and the persistent caches.
 *
 * Section 9.3 of the paper reports ~200 candidate configurations per
 * operator and ~1 minute of compile time per operator; after the
 * micro-op engine made simulation cheap, tuning-heavy runs became
 * *compile*-bound. This harness measures what src/cache/ does about it:
 *
 *  1. per-phase micro costs — program build, compiler::compile,
 *     content fingerprint, kernel serialize/deserialize, and reading a
 *     verified blob back from disk;
 *  2. one full operator tuning pass, cold (fresh cache directory,
 *     compile pool active) vs warm (fresh Runtime, persistent
 *     autotune-database hit);
 *  3. an llm::Engine tune pass (every linear of a served model plus the
 *     LM head), cold vs warm across simulated process restarts, and a
 *     retune: the tune database emptied and the kernel store kept, so
 *     every kernel is read from disk, verified, deserialized and
 *     decoded, and none is compiled.
 *
 * The sweep is recorded as JSON (see BENCH_compile.json) with an
 * argument. Exits non-zero if the warm engine pass is not at least 5x
 * faster than cold — the regression gate CI runs. A private temporary
 * TILUS_CACHE_DIR keeps the measurement honest (always truly cold) and
 * leaves the user's real cache untouched.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <unistd.h>
#include <vector>

#include "autotune/tuner.h"
#include "bench_common.h"
#include "cache/blob_store.h"
#include "cache/compile_pool.h"
#include "cache/kernel_cache.h"
#include "cache/serialize.h"
#include "cache/tune_db.h"
#include "llm/engine.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "sim/gpu_spec.h"

using namespace tilus;
using namespace tilus::bench;

namespace {

double
nowMs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               clock::now().time_since_epoch())
        .count();
}

/** Median wall time of @p iters invocations of fn, in milliseconds. */
template <typename Fn>
double
timeMs(int iters, Fn &&fn)
{
    std::vector<double> times;
    times.reserve(iters);
    for (int i = 0; i < iters; ++i) {
        double start = nowMs();
        fn();
        times.push_back(nowMs() - start);
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

kernels::MatmulConfig
sampleConfig()
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = uint4();
    cfg.n = 57344;
    cfg.k = 8192;
    cfg.bm = 16;
    cfg.bn = 256;
    cfg.bk = 64;
    cfg.warp_n = 2;
    cfg.stages = 2;
    cfg.group_size = 128;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    // Private cache root: cold numbers stay cold on every run, and the
    // user's ~/.cache/tilus is never polluted by bench artifacts. Must
    // happen before anything touches the process-wide cache instances.
    const std::string cache_dir =
        (std::filesystem::temp_directory_path() /
         ("tilus_bench_compile_" +
          std::to_string(static_cast<long>(::getpid()))))
            .string();
    ::setenv("TILUS_CACHE_DIR", cache_dir.c_str(), 1);
    ::setenv("TILUS_CACHE", "on", 1);

    printHeader("bench_compile_cost: kernel cache & autotune database "
                "(L40S, simulated)");
    std::printf("cache dir: %s, compile threads: %d\n\n",
                cache_dir.c_str(), cache::compileThreads());

    // ------------------------------------------------- per-phase costs
    kernels::MatmulConfig cfg = sampleConfig();
    const double build_ms =
        timeMs(5, [&] { kernels::buildMatmul(cfg); });
    kernels::MatmulBundle bundle = kernels::buildMatmul(cfg);
    lir::Kernel kernel;
    const double compile_ms = timeMs(
        5, [&] { kernel = compiler::compile(bundle.main_program, {}); });
    cache::Fingerprint fp;
    const double fingerprint_ms = timeMs(20, [&] {
        fp = cache::fingerprintProgram(bundle.main_program, {});
    });
    std::string payload;
    const double serialize_ms =
        timeMs(20, [&] { payload = cache::serializeKernel(kernel); });
    const double deserialize_ms =
        timeMs(20, [&] { cache::deserializeKernel(payload); });
    // A blob of its own, outside the kernel store: storing the kernel
    // there would turn one of the operator tune's compiles into a load.
    const std::string blob_path = cache_dir + "/phase.lirk";
    std::filesystem::create_directories(cache_dir);
    if (!cache::writeBlobAtomic(blob_path, cache::kKernelMagic,
                                cache::kCacheFormatVersion, payload)) {
        std::fprintf(stderr, "error: cannot write %s\n", blob_path.c_str());
        return 1;
    }
    std::string loaded, why;
    cache::BlobRead read = cache::BlobRead::kMissing;
    const double load_ms = timeMs(20, [&] {
        read = cache::readBlobFile(blob_path, cache::kKernelMagic,
                                   cache::kCacheFormatVersion, &loaded,
                                   &why);
    });
    if (read != cache::BlobRead::kHit || loaded != payload) {
        std::fprintf(stderr, "error: phase blob did not read back\n");
        return 1;
    }

    std::printf("%-34s %10s\n", "phase (one u4 57344x8192 candidate)",
                "median ms");
    std::printf("%-34s %10.3f\n", "build program", build_ms);
    std::printf("%-34s %10.3f\n", "compile (O2)", compile_ms);
    std::printf("%-34s %10.3f\n", "fingerprint", fingerprint_ms);
    std::printf("%-34s %10.3f  (%zu KiB)\n", "serialize kernel",
                serialize_ms, payload.size() / 1024);
    std::printf("%-34s %10.3f\n", "deserialize kernel", deserialize_ms);
    std::printf("%-34s %10.3f\n", "load blob (read + verify)", load_ms);

    // -------------------------------------- one operator, cold vs warm
    const sim::GpuSpec spec = sim::l40s();
    double op_cold_ms, op_warm_ms;
    int op_candidates, op_cold_compiles;
    {
        runtime::Runtime rt(spec);
        double start = nowMs();
        autotune::TuneResult cold =
            autotune::tune(rt, uint4(), 57344, 8192, 16);
        op_cold_ms = nowMs() - start;
        op_candidates = cold.candidates_tried;
        op_cold_compiles = rt.compileCount();
    }
    kernels::MatmulConfig op_warm_config;
    int op_warm_compiles;
    {
        runtime::Runtime rt(spec); // fresh runtime = simulated restart
        double start = nowMs();
        autotune::TuneResult warm =
            autotune::tune(rt, uint4(), 57344, 8192, 16);
        op_warm_ms = nowMs() - start;
        op_warm_config = warm.config;
        op_warm_compiles = rt.compileCount();
    }
    std::printf("\noperator tune (u4 57344x8192, m=16): %d candidates\n",
                op_candidates);
    std::printf("  cold: %10.1f ms  (%d kernels compiled)\n", op_cold_ms,
                op_cold_compiles);
    std::printf("  warm: %10.1f ms  (%d kernels compiled) -> %s, %s\n",
                op_warm_ms, op_warm_compiles,
                fmtSpeedup(op_cold_ms / op_warm_ms).c_str(),
                op_warm_config.name().c_str());

    // ------------------------------- llm::Engine tune pass, cold vs warm
    const llm::ModelConfig model = llm::gemma2_9b();
    llm::EngineOptions eopts;
    eopts.wdtype = uint4();
    const std::vector<int64_t> decode_batches = {16};
    const std::vector<int64_t> prefill_chunks = {256};
    double engine_cold_ms, engine_warm_ms;
    int engine_cold_compiles, engine_warm_compiles;
    // Tid tables the cold pass's decodes request, and how many distinct
    // ones its runtime's memo builds (src/sim/microop.h).
    const obs::Registry &registry = obs::Registry::instance();
    const int64_t tables_before =
        registry.counterValue("sim_tid_tables_total");
    const int64_t built_before =
        registry.counterValue("sim_tid_tables_built_total");
    {
        runtime::Runtime rt(spec);
        llm::ServingEngine engine(rt, model, eopts);
        double start = nowMs();
        engine.warmUp(decode_batches, prefill_chunks);
        engine_cold_ms = nowMs() - start;
        engine_cold_compiles = rt.compileCount();
    }
    const int64_t engine_tid_tables =
        registry.counterValue("sim_tid_tables_total") - tables_before;
    const int64_t engine_tid_tables_built =
        registry.counterValue("sim_tid_tables_built_total") - built_before;
    {
        runtime::Runtime rt(spec);
        llm::ServingEngine engine(rt, model, eopts);
        double start = nowMs();
        engine.warmUp(decode_batches, prefill_chunks);
        engine_warm_ms = nowMs() - start;
        engine_warm_compiles = rt.compileCount();
    }
    // Retune: a restart with the tune database emptied and the kernel
    // store kept — the sweeps run again, loading every kernel from disk.
    double retune_ms;
    int retune_compiles, retune_disk_loads;
    {
        for (const auto &entry : std::filesystem::directory_iterator(
                 cache_dir + "/tune"))
            std::filesystem::remove(entry.path());
        runtime::Runtime rt(spec);
        llm::ServingEngine engine(rt, model, eopts);
        double start = nowMs();
        engine.warmUp(decode_batches, prefill_chunks);
        retune_ms = nowMs() - start;
        retune_compiles = rt.compileCount();
        retune_disk_loads = rt.diskLoadCount();
    }
    const double engine_speedup = engine_cold_ms / engine_warm_ms;
    std::printf("\nllm::Engine tune pass (%s, u4, decode 16 + prefill "
                "256):\n",
                model.name.c_str());
    std::printf("  cold: %10.1f ms  (%d kernels compiled, %lld tid "
                "tables requested, %lld built)\n",
                engine_cold_ms, engine_cold_compiles,
                static_cast<long long>(engine_tid_tables),
                static_cast<long long>(engine_tid_tables_built));
    std::printf("  warm: %10.1f ms  (%d kernels compiled) -> %s\n",
                engine_warm_ms, engine_warm_compiles,
                fmtSpeedup(engine_speedup).c_str());
    std::printf("  retune: %8.1f ms  (%d kernels compiled, %d loaded "
                "from disk)\n",
                retune_ms, retune_compiles, retune_disk_loads);

    const cache::CacheStats kstats =
        cache::KernelCache::instance().stats();
    const cache::CacheStats tstats = cache::TuneDb::instance().stats();
    std::printf("\nkernel artifacts stored: %lld, tune records stored: "
                "%lld (disk errors: %lld)\n",
                static_cast<long long>(kstats.stores),
                static_cast<long long>(tstats.stores),
                static_cast<long long>(kstats.disk_errors +
                                       tstats.disk_errors));

    std::ostringstream json;
    json << "{\"bench\":\"compile\",\"build_info\":"
         << obs::buildInfoJson() << ",\"gpu\":\"L40S\""
         << ",\"compile_threads\":" << cache::compileThreads()
         << ",\"phase_ms\":{"
         << "\"build\":" << build_ms << ",\"compile\":" << compile_ms
         << ",\"fingerprint\":" << fingerprint_ms
         << ",\"serialize\":" << serialize_ms
         << ",\"deserialize\":" << deserialize_ms
         << ",\"load\":" << load_ms
         << ",\"payload_bytes\":" << payload.size() << "}"
         << ",\"operator_tune\":{\"candidates\":" << op_candidates
         << ",\"cold_ms\":" << op_cold_ms
         << ",\"warm_ms\":" << op_warm_ms
         << ",\"cold_compiles\":" << op_cold_compiles
         << ",\"warm_compiles\":" << op_warm_compiles
         << ",\"speedup\":" << op_cold_ms / op_warm_ms << "}"
         << ",\"engine_tune\":{\"model\":\"" << model.name << "\""
         << ",\"cold_ms\":" << engine_cold_ms
         << ",\"warm_ms\":" << engine_warm_ms
         << ",\"cold_compiles\":" << engine_cold_compiles
         << ",\"warm_compiles\":" << engine_warm_compiles
         << ",\"tid_tables\":" << engine_tid_tables
         << ",\"tid_tables_built\":" << engine_tid_tables_built
         << ",\"retune_ms\":" << retune_ms
         << ",\"retune_compiles\":" << retune_compiles
         << ",\"retune_disk_loads\":" << retune_disk_loads
         << ",\"speedup\":" << engine_speedup << "}"
         << ",\"kernel_artifacts_stored\":" << kstats.stores
         << ",\"tune_records_stored\":" << tstats.stores << "}\n";
    std::error_code ec;
    std::filesystem::remove_all(cache_dir, ec);
    if (!emitReport(argc, argv, json.str()))
        return 1;

    // Regression gate: a warm tune pass must be at least 5x faster than
    // cold (in practice it is orders of magnitude — the database hit
    // skips enumeration and compilation entirely). The line prints on
    // success too, with the registry's warm/cold split as evidence.
    const double gate = 5.0;
    std::printf("gate %s: warm/cold engine tune speedup = %.1fx "
                "(threshold %.0fx, margin %.1fx; registry: %lld warm / "
                "%lld cold sweeps, %lld compiles)\n",
                engine_speedup >= gate ? "PASS" : "FAIL", engine_speedup,
                gate, engine_speedup - gate,
                static_cast<long long>(
                    registry.counterValue("tune_sweeps_warm_total")),
                static_cast<long long>(
                    registry.counterValue("tune_sweeps_cold_total")),
                static_cast<long long>(
                    registry.counterValue("compiler_compiles_total")));
    if (engine_speedup < gate) {
        std::fprintf(stderr,
                     "error: warm engine tune pass only %.1fx faster "
                     "than cold (gate: %.0fx)\n",
                     engine_speedup, gate);
        return 1;
    }
    return 0;
}
