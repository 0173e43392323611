/**
 * @file
 * bench_profile: the profiler's headline story — per-region roofline
 * classification of the stage-1 u4 matmul (Figure 1(b)). At O0 the
 * synchronous k-loop stalls on the DRAM round trip every iteration, so
 * the profiler must classify the main loop serialization-bound; at O2
 * software pipelining hides the latency and the same loop becomes
 * DRAM-bandwidth-bound. Both classifications are hard gates. With an
 * argument the run is recorded as JSON (see BENCH_profile.json).
 *
 * When TILUS_PROFILE is set the finished profiles are also recorded in
 * the process-wide sink, so `tools/report_profile.py --run` can drive
 * this binary as its smoke test.
 */
#include <algorithm>
#include <sstream>

#include "bench_common.h"
#include "obs/build_info.h"
#include "obs/profile.h"
#include "sim/gpu_spec.h"
#include "sim/interpreter.h"

using namespace tilus;
using namespace tilus::bench;

namespace {

struct Row
{
    std::string name;
    std::string opt_level;
    obs::KernelProfile profile;
};

ir::Env
bindParams(const lir::Kernel &kernel, int64_t m)
{
    ir::Env env;
    for (const ir::Var &p : kernel.params)
        env.bind(p, p.name() == "m" ? m : 0);
    return env;
}

Row
evaluate(const kernels::MatmulConfig &cfg, compiler::OptLevel level,
         int64_t m, const sim::GpuSpec &spec)
{
    Row row;
    row.name = cfg.name();
    row.opt_level = level == compiler::OptLevel::O0 ? "O0" : "O2";

    compiler::CompileOptions opts;
    opts.opt_level = level;
    lir::Kernel kernel =
        compiler::compile(kernels::buildMatmul(cfg).main_program, opts);
    ir::Env env = bindParams(kernel, m);

    // The timing model's input: one representative block, ghost mode.
    sim::SimStats block_stats = sim::traceOneBlock(kernel, env);

    // Attribution run: the same single block, ghost mode, with the
    // collector armed — per-instruction counters then mirror exactly
    // the block the model is fed.
    obs::ProfileCollector collector(kernel);
    sim::RunOptions options;
    options.mode = sim::MemoryMode::kGhost;
    options.max_blocks = 1;
    options.enable_print = false;
    options.profile = &collector;
    sim::run(kernel, env, nullptr, options);
    row.profile = collector.finish(block_stats, env, spec, {}, "microop");
    // Both opt levels profile the same program, so disambiguate the
    // sink/report key by opt level.
    row.profile.kernel += "@" + row.opt_level;
    if (obs::ProfileSink::instance().enabled())
        obs::ProfileSink::instance().record(row.profile);
    return row;
}

std::string
componentJson(const obs::ComponentUs &c)
{
    std::ostringstream oss;
    oss << "{\"alu_us\":" << c.alu_us << ",\"dram_us\":" << c.dram_us
        << ",\"l2_us\":" << c.l2_us << ",\"serial_us\":" << c.serial_us
        << ",\"simt_us\":" << c.simt_us << ",\"smem_us\":" << c.smem_us
        << ",\"tc_us\":" << c.tc_us << "}";
    return oss.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const sim::GpuSpec spec = sim::l40s();
    const int64_t m = 16;

    printHeader("bench_profile: per-region roofline classification, "
                "stage-1 u4 matmul O0 vs O2 (L40S, simulated)");

    kernels::MatmulConfig cfg;
    cfg.wdtype = uint4();
    cfg.n = 4096;
    cfg.k = 4096;
    cfg.bm = 16;
    cfg.bn = 64;
    cfg.bk = 32;
    cfg.warp_m = 1;
    cfg.warp_n = 2;
    cfg.stages = 1;

    std::vector<Row> rows;
    rows.push_back(evaluate(cfg, compiler::OptLevel::O0, m, spec));
    rows.push_back(evaluate(cfg, compiler::OptLevel::O2, m, spec));

    std::printf("%-44s %4s %14s %14s %10s %10s\n", "kernel", "opt",
                "main-loop", "kernel bound", "total us", "serial us");
    for (const Row &row : rows) {
        const obs::RegionProfile &loop =
            row.profile.region(obs::Region::kMainLoop);
        std::printf("%-44s %4s %14s %14s %10.1f %10.1f\n",
                    row.name.c_str(), row.opt_level.c_str(),
                    obs::boundName(loop.bound),
                    obs::boundName(row.profile.bound),
                    row.profile.latency.total_us,
                    row.profile.latency.serial_us);
    }

    // Top attributed instructions of the O2 main loop, so the log shows
    // the hotspot table the profiler exists for.
    {
        const obs::KernelProfile &p = rows.back().profile;
        std::vector<const obs::InstrProfile *> hot;
        for (const obs::InstrProfile &instr : p.instructions)
            if (instr.region == obs::Region::kMainLoop &&
                instr.estUs() > 0)
                hot.push_back(&instr);
        std::sort(hot.begin(), hot.end(),
                  [](const obs::InstrProfile *a,
                     const obs::InstrProfile *b) {
                      return a->estUs() > b->estUs();
                  });
        std::printf("\ntop O2 main-loop instructions (%s):\n",
                    p.kernel.c_str());
        for (size_t i = 0; i < hot.size() && i < 5; ++i)
            std::printf("  #%-3d %-24s %8.2f us  x%ld\n", hot[i]->id,
                        hot[i]->opcode.c_str(), hot[i]->estUs(),
                        long(hot[i]->executions));
    }

    std::ostringstream json;
    json << "{\"bench\":\"profile\",\"build_info\":"
         << obs::buildInfoJson() << ",\"gpu\":\"L40S\",\"m\":" << m
         << ",\"runs\":[\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        const obs::KernelProfile &p = row.profile;
        const obs::RegionProfile &loop =
            p.region(obs::Region::kMainLoop);
        json << "  {\"kernel\":\"" << row.name << "\",\"opt_level\":\""
             << row.opt_level << "\",\"main_loop_bound\":\""
             << obs::boundName(loop.bound) << "\",\"kernel_bound\":\""
             << obs::boundName(p.bound) << "\",\"memory_bound\":"
             << (p.memory_bound ? "true" : "false")
             << ",\"arith_intensity\":" << p.arith_intensity
             << ",\"total_us\":" << p.latency.total_us
             << ",\"main_loop_components\":" << componentJson(loop.components)
             << "}" << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    json << "]}\n";
    if (!emitReport(argc, argv, json.str()))
        return 1;

    // The Figure 1(b) story as a hard gate: the profiler must see the
    // synchronous loop stall (serialization-bound at O0) disappear into
    // bandwidth saturation (DRAM-bound at O2). The line prints on
    // success too.
    const obs::Bound o0_loop =
        rows[0].profile.region(obs::Region::kMainLoop).bound;
    const obs::Bound o2_loop =
        rows[1].profile.region(obs::Region::kMainLoop).bound;
    const bool pass = o0_loop == obs::Bound::kSerialization &&
                      o2_loop == obs::Bound::kDram;
    std::printf("\ngate %s: O0 main loop = %s (expected serialization), "
                "O2 main loop = %s (expected dram)\n",
                pass ? "PASS" : "FAIL", obs::boundName(o0_loop),
                obs::boundName(o2_loop));
    if (!pass) {
        std::fprintf(stderr,
                     "error: profiler roofline classification "
                     "regressed\n");
        return 1;
    }
    return 0;
}
