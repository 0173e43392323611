/**
 * @file
 * bench_interp: wall-clock throughput of the LIR simulator itself —
 * legacy tree-walk interpreter vs the pre-decoded micro-op engine
 * (src/sim/microop.h). Unlike every other bench in this directory this
 * measures *host* wall time, not modeled GPU latency: the simulator is
 * the substrate under ctest, the autotuner's probes, the differential
 * oracle, and all figure sweeps, so simulated cells per second directly
 * bounds how much of the design space those consumers can afford.
 *
 * For the stage-1/stage-2 u4/f16 matmul kernels the harness runs the
 * same functional simulation (full grid, seeded device) under both
 * engines, checks the device bytes agree, and reports simulated
 * cells/sec (M*N*K MAC cells per host second). With an argument the
 * sweep is written as JSON (see BENCH_interp.json).
 *
 * The binary doubles as CI's engine-divergence gate, built from its own
 * rows: it exits non-zero unless every micro-op run completed on the
 * micro-op engine and left device bytes identical to the tree walk's.
 */
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench_common.h"
#include "obs/build_info.h"
#include "obs/profile.h"
#include "opt/oracle.h"
#include "sim/interpreter.h"
#include "sim/microop.h"
#include "support/percentile.h"

using namespace tilus;
using namespace tilus::bench;

namespace {

using Clock = std::chrono::steady_clock;

struct Row
{
    std::string name;
    double treewalk_s = 0;
    double microop_s = 0;
    double cells = 0;
    bool identical = false;
    bool used_microops = false; ///< every micro-op run completed
    int affine = 0, uniform = 0, generic = 0;
};

kernels::MatmulConfig
config(DataType wdtype, int stages)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = wdtype;
    cfg.n = 1024;
    cfg.k = 512;
    cfg.bm = 16;
    cfg.bn = 64;
    cfg.bk = 32;
    cfg.warp_m = 1;
    cfg.warp_n = 2;
    cfg.stages = stages;
    return cfg;
}

/** One functional, seeded, full-grid run; returns host seconds. */
double
timeRun(const lir::Kernel &kernel, sim::Engine engine,
        const opt::OracleConfig &oracle, sim::Device &device)
{
    // Reuse the oracle's seeded-arena convention so both engines see the
    // same inputs and the device bytes can be compared afterwards.
    auto t0 = Clock::now();
    opt::runSeeded(kernel, oracle, device, engine);
    auto t1 = Clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

Row
evaluate(const kernels::MatmulConfig &cfg, int64_t m)
{
    Row row;
    row.name = cfg.name();
    auto bundle = kernels::buildMatmul(cfg);
    lir::Kernel kernel = compiler::compile(bundle.main_program, {});

    sim::MicroProgram program = sim::compileMicroProgram(kernel);
    row.affine = program.numAffineExprs();
    row.uniform = program.numUniformExprs();
    row.generic = program.numGenericExprs();

    opt::OracleConfig oracle;
    oracle.scalars = {{"m", m}};
    oracle.device_bytes = 16 << 20;

    // Best of three runs per engine (each on a fresh seeded device —
    // the workspace bump allocator advances per run): the comparison is
    // wall clock, so take the least-disturbed sample of each.
    const int reps = 3;
    row.treewalk_s = 1e30;
    row.microop_s = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        sim::Device dev_tree(oracle.device_bytes);
        sim::Device dev_micro(oracle.device_bytes);
        row.treewalk_s =
            std::min(row.treewalk_s,
                     timeRun(kernel, sim::Engine::kTreeWalk, oracle,
                             dev_tree));
        try {
            row.microop_s =
                std::min(row.microop_s,
                         timeRun(kernel, sim::Engine::kMicroOps, oracle,
                                 dev_micro));
        } catch (const TilusError &e) {
            // sim::run throws on undecodable kernels; report it as the
            // gate failure it is instead of aborting the sweep.
            std::fprintf(stderr, "%s: %s\n", row.name.c_str(), e.what());
            return row;
        }
        if (rep + 1 == reps)
            row.identical = opt::devicesIdentical(
                dev_tree, dev_micro, oracle.device_bytes);
    }
    row.used_microops = true;
    row.cells = double(m) * double(cfg.n) * double(cfg.k);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const int64_t m = 16;
    printHeader("bench_interp: simulator wall clock, tree-walk vs "
                "micro-op engine (functional, full grid)");

    std::vector<Row> rows;
    for (int stages : {1, 2}) {
        rows.push_back(evaluate(config(uint4(), stages), m));
        rows.push_back(evaluate(config(float16(), stages), m));
    }

    std::printf("%-44s %10s %10s %8s %14s %5s\n", "kernel", "tree s",
                "micro s", "speedup", "micro cells/s", "exprs");
    int completed = 0, identical = 0;
    for (const Row &row : rows) {
        std::printf("%-44s %10.3f %10.3f %7.2fx %14.3g %d/%d/%d%s%s\n",
                    row.name.c_str(), row.treewalk_s, row.microop_s,
                    row.treewalk_s / row.microop_s,
                    row.cells / row.microop_s, row.affine, row.uniform,
                    row.generic, row.identical ? "" : "  DIVERGED",
                    row.used_microops ? "" : "  NOT-RUN");
        completed += row.used_microops ? 1 : 0;
        identical += row.identical ? 1 : 0;
    }
    const int n = static_cast<int>(rows.size());
    bool failed = completed < n || identical < n;

    // Profiler A/B on the headline kernel: a disarmed run (the default
    // RunOptions::profile == nullptr path every ctest and sweep takes)
    // against an armed run with a live ProfileCollector. The armed run
    // must leave byte-identical device contents — attribution only
    // *observes* counters. Host timings are noisy and the first run of
    // a back-to-back pair warms caches for the second, so the A/B runs
    // kProfilePairs interleaved pairs, alternating which side goes
    // first, and reports each side's median and interquartile range.
    constexpr int kProfilePairs = 10;
    bool profile_identical = true;
    std::vector<double> disarmed_s, armed_s;
    {
        auto cfg = config(uint4(), 1);
        auto bundle = kernels::buildMatmul(cfg);
        lir::Kernel kernel = compiler::compile(bundle.main_program, {});
        opt::OracleConfig oracle;
        oracle.scalars = {{"m", m}};
        oracle.device_bytes = 16 << 20;

        auto timed = [&](sim::Device &device,
                         obs::ProfileCollector *collector) {
            auto t0 = Clock::now();
            opt::runSeeded(kernel, oracle, device,
                           sim::Engine::kMicroOps, collector);
            return std::chrono::duration<double>(Clock::now() - t0)
                .count();
        };
        for (int pair = 0; pair < kProfilePairs; ++pair) {
            sim::Device dev_plain(oracle.device_bytes);
            sim::Device dev_armed(oracle.device_bytes);
            obs::ProfileCollector collector(kernel);
            if (pair % 2 == 0) {
                disarmed_s.push_back(timed(dev_plain, nullptr));
                armed_s.push_back(timed(dev_armed, &collector));
            } else {
                armed_s.push_back(timed(dev_armed, &collector));
                disarmed_s.push_back(timed(dev_plain, nullptr));
            }
            profile_identical =
                profile_identical &&
                opt::devicesIdentical(dev_plain, dev_armed,
                                      oracle.device_bytes);
        }
        if (!profile_identical)
            failed = true;
    }
    const double profile_disarmed_s = percentile(disarmed_s, 50);
    const double profile_armed_s = percentile(armed_s, 50);
    const double profile_disarmed_iqr_s =
        percentile(disarmed_s, 75) - percentile(disarmed_s, 25);
    const double profile_armed_iqr_s =
        percentile(armed_s, 75) - percentile(armed_s, 25);
    std::printf("\nprofiler A/B (%d interleaved pairs): disarmed median "
                "%.4fs (IQR %.4fs), armed median %.4fs (IQR %.4fs), "
                "overhead %.2fx, devices %s\n",
                kProfilePairs, profile_disarmed_s, profile_disarmed_iqr_s,
                profile_armed_s, profile_armed_iqr_s,
                profile_armed_s / profile_disarmed_s,
                profile_identical ? "identical" : "DIVERGED");

    std::ostringstream json;
    json << "{\"bench\":\"interp\",\"build_info\":"
         << obs::buildInfoJson() << ",\"m\":" << m
         << ",\"profile_identical\":"
         << (profile_identical ? "true" : "false")
         << ",\"profile_pairs\":" << kProfilePairs
         << ",\"profile_disarmed_s\":" << profile_disarmed_s
         << ",\"profile_disarmed_iqr_s\":" << profile_disarmed_iqr_s
         << ",\"profile_armed_s\":" << profile_armed_s
         << ",\"profile_armed_iqr_s\":" << profile_armed_iqr_s
         << ",\"profile_overhead\":"
         << profile_armed_s / profile_disarmed_s << ",\"runs\":[\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        json << "  {\"kernel\":\"" << row.name << "\""
             << ",\"treewalk_s\":" << row.treewalk_s
             << ",\"microop_s\":" << row.microop_s << ",\"speedup\":"
             << row.treewalk_s / row.microop_s
             << ",\"treewalk_cells_per_s\":" << row.cells / row.treewalk_s
             << ",\"microop_cells_per_s\":" << row.cells / row.microop_s
             << ",\"identical\":" << (row.identical ? "true" : "false")
             << ",\"used_microops\":"
             << (row.used_microops ? "true" : "false")
             << ",\"affine_exprs\":" << row.affine
             << ",\"uniform_exprs\":" << row.uniform
             << ",\"generic_exprs\":" << row.generic << "}"
             << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    json << "]}\n";
    if (argc > 1) {
        std::ofstream out(argv[1]);
        out << json.str();
        out.flush();
        if (!out) {
            std::fprintf(stderr, "\nerror: cannot write %s\n", argv[1]);
            return 1;
        }
        std::printf("\nwrote %s\n", argv[1]);
    } else {
        std::printf("\n%s", json.str().c_str());
    }

    // The gate line prints on success too, so a green CI log still
    // shows what was checked.
    std::printf("gate %s: micro-op runs completed = %d/%d, device bytes "
                "identical to the tree walk = %d/%d, profile A/B "
                "identical = %s\n",
                failed ? "FAIL" : "PASS", completed, n, identical, n,
                profile_identical ? "true" : "false");
    if (failed) {
        std::fprintf(stderr, "\nerror: a micro-op run failed or diverged "
                             "from the tree walk\n");
        return 1;
    }
    return 0;
}
