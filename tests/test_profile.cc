/**
 * @file
 * Kernel-profiler tests (obs/profile.h): conservation — per-instruction
 * attributed counters must sum exactly to the whole-run SimStats, and
 * per-instruction latency components to the LatencyBreakdown, for
 * every suite kernel, on both engines, at O0 and O2 — plus
 * instruction-by-instruction cross-engine agreement, the golden
 * stage-1 u4 matmul profile (region segmentation, roofline
 * classification, pinned JSON bytes), and the disarmed-mode guarantee
 * that profiling off means byte-identical devices.
 */
#include <algorithm>

#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "kernels/elementwise.h"
#include "kernels/matmul.h"
#include "obs/profile.h"
#include "opt/oracle.h"
#include "sim/gpu_spec.h"
#include "sim/interpreter.h"

namespace tilus {
namespace {

kernels::MatmulConfig
baseConfig(DataType wdtype)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = wdtype;
    cfg.n = 256;
    cfg.k = 64;
    cfg.bm = 16;
    cfg.bn = 64;
    cfg.bk = 32;
    cfg.warp_m = 1;
    cfg.warp_n = 2;
    return cfg;
}

/** The conservation suite: matmul variants, elementwise, transform. */
std::vector<std::pair<std::string, ir::Program>>
suitePrograms()
{
    std::vector<std::pair<std::string, ir::Program>> programs;
    for (int stages : {1, 2}) {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = stages;
        programs.emplace_back(cfg.name(),
                              kernels::buildMatmul(cfg).main_program);
    }
    {
        auto cfg = baseConfig(tilus::float16());
        cfg.stages = 1;
        programs.emplace_back(cfg.name(),
                              kernels::buildMatmul(cfg).main_program);
    }
    {
        kernels::MatmulConfig cfg;
        cfg.wdtype = tilus::uint4();
        cfg.n = 256;
        cfg.k = 64;
        cfg.bm = 2;
        cfg.bn = 128;
        cfg.bk = 32;
        cfg.simt_warps = 2;
        cfg.stages = 1;
        cfg.use_tensor_cores = false;
        programs.emplace_back(cfg.name(),
                              kernels::buildMatmul(cfg).main_program);
    }
    {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = 2;
        auto bundle = kernels::buildMatmul(cfg);
        programs.emplace_back("transform", *bundle.transform_program);
    }
    programs.emplace_back("vector_add",
                          kernels::buildVectorAdd(2, 4).program);
    programs.emplace_back("axpy", kernels::buildAxpy(1, 2).program);
    return programs;
}

const std::vector<std::pair<std::string, int64_t>> kScalars = {
    {"m", 16}, {"n", 512}};

/** One profiled seeded run; returns the run's whole-kernel stats. */
sim::SimStats
profiledRun(const lir::Kernel &kernel, sim::Engine engine,
            obs::ProfileCollector &collector)
{
    opt::OracleConfig config;
    config.scalars = kScalars;
    sim::Device device(config.device_bytes);
    return opt::runSeeded(kernel, config, device, engine, &collector);
}

/**
 * Fold the model over @p collector's rows (the run's stats standing in
 * for the block stats) and check that every per-instruction component
 * sums to its LatencyBreakdown field whenever the component carries
 * weight, and that the region serial shares sum to latency.serial_us.
 */
void
expectComponentsConserve(const lir::Kernel &kernel,
                         const obs::ProfileCollector &collector,
                         const sim::SimStats &stats,
                         const std::string &tag)
{
    ir::Env env;
    for (const ir::Var &p : kernel.params) {
        int64_t value = 1;
        for (const auto &[name, v] : kScalars)
            if (name == p.name())
                value = v;
        env.bind(p, value);
    }
    const obs::KernelProfile profile =
        collector.finish(stats, env, sim::l40s());
    const sim::LatencyBreakdown &l = profile.latency;
    obs::ComponentUs sum;
    for (const obs::InstrProfile &row : profile.instructions)
        sum.add(row.components);
    const sim::Counters &t = profile.totals;
    auto near = [&](double got, double want, bool weighted,
                    const char *what) {
        if (!weighted)
            return;
        EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, want))
            << tag << " " << what;
    };
    const bool mem = t.global_load_bytes + t.global_store_bytes > 0;
    near(sum.dram_us, l.dram_us, mem, "dram_us");
    near(sum.l2_us, l.l2_us, mem, "l2_us");
    near(sum.tc_us, l.tc_us, sim::tcFlops(t) > 0, "tc_us");
    near(sum.simt_us, l.simt_us, sim::simtFma(t) > 0, "simt_us");
    near(sum.alu_us, l.alu_us, sim::aluOps(t) > 0, "alu_us");
    near(sum.smem_us, l.smem_us, sim::smemBytes(t) > 0, "smem_us");

    double region_serial = 0;
    for (const obs::RegionProfile &region : profile.regions)
        region_serial += region.components.serial_us;
    near(region_serial, l.serial_us, true, "region serial_us");
}

// ---------------------------------------------------------------------
// Conservation: attributed counters sum exactly to the run's SimStats.
// ---------------------------------------------------------------------

TEST(ProfileConservation, SuiteKernelsBothEnginesBothLevels)
{
    for (const auto &[name, program] : suitePrograms()) {
        for (compiler::OptLevel level :
             {compiler::OptLevel::O0, compiler::OptLevel::O2}) {
            compiler::CompileOptions options;
            options.opt_level = level;
            lir::Kernel kernel = compiler::compile(program, options);
            const char *tag =
                level == compiler::OptLevel::O0 ? "O0" : "O2";

            obs::ProfileCollector tree(kernel);
            sim::SimStats tree_stats =
                profiledRun(kernel, sim::Engine::kTreeWalk, tree);
            EXPECT_EQ(tree.attributedTotals(),
                      static_cast<const sim::Counters &>(tree_stats))
                << name << " " << tag << " (treewalk)";
            expectComponentsConserve(kernel, tree, tree_stats,
                                     name + " " + tag + " (treewalk)");

            obs::ProfileCollector micro(kernel);
            sim::SimStats micro_stats =
                profiledRun(kernel, sim::Engine::kMicroOps, micro);
            EXPECT_EQ(micro.attributedTotals(),
                      static_cast<const sim::Counters &>(micro_stats))
                << name << " " << tag << " (microop)";
            expectComponentsConserve(kernel, micro, micro_stats,
                                     name + " " + tag + " (microop)");

            // Engines must agree instruction by instruction, not just
            // in aggregate. (Executions are compared except on "exit",
            // which the micro-op engine compiles to a jump, not a
            // counted leaf; its counters are all zero either way.)
            ASSERT_EQ(tree.numInstructions(), micro.numInstructions());
            for (size_t i = 0; i < tree.numInstructions(); ++i) {
                const obs::InstrProfile &a = tree.row(i);
                const obs::InstrProfile &b = micro.row(i);
                EXPECT_EQ(a.counters, b.counters)
                    << name << " " << tag << " instr #" << a.id << " ("
                    << a.opcode << ")";
                if (a.opcode != "exit") {
                    EXPECT_EQ(a.executions, b.executions)
                        << name << " " << tag << " instr #" << a.id
                        << " (" << a.opcode << ")";
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The golden profile: stage-1 u4 matmul, regions, roofline, round trip.
// ---------------------------------------------------------------------

obs::KernelProfile
goldenProfile(compiler::OptLevel level)
{
    kernels::MatmulConfig cfg = baseConfig(tilus::uint4());
    cfg.n = 4096;
    cfg.k = 4096;
    cfg.stages = 1;
    compiler::CompileOptions options;
    options.opt_level = level;
    lir::Kernel kernel =
        compiler::compile(kernels::buildMatmul(cfg).main_program,
                          options);
    ir::Env env;
    for (const ir::Var &p : kernel.params)
        env.bind(p, p.name() == "m" ? 16 : 0);

    sim::SimStats block_stats = sim::traceOneBlock(kernel, env);
    obs::ProfileCollector collector(kernel);
    sim::RunOptions run;
    run.mode = sim::MemoryMode::kGhost;
    run.max_blocks = 1;
    run.enable_print = false;
    run.profile = &collector;
    sim::run(kernel, env, nullptr, run);
    return collector.finish(block_stats, env, sim::l40s(), {}, "microop");
}

TEST(ProfileGolden, MainLoopBoundFlipsFromSerializationToDram)
{
    // Figure 1(b): the synchronous loop stalls on the DRAM round trip
    // (serialization-bound); software pipelining turns the same loop
    // bandwidth-bound.
    obs::KernelProfile o0 = goldenProfile(compiler::OptLevel::O0);
    EXPECT_EQ(o0.region(obs::Region::kMainLoop).bound,
              obs::Bound::kSerialization);
    EXPECT_EQ(o0.bound, obs::Bound::kSerialization);

    obs::KernelProfile o2 = goldenProfile(compiler::OptLevel::O2);
    EXPECT_EQ(o2.region(obs::Region::kMainLoop).bound,
              obs::Bound::kDram);
    EXPECT_EQ(o2.bound, obs::Bound::kDram);
    EXPECT_LT(o2.latency.total_us, o0.latency.total_us);

    // Both sit on the memory-bound side of the roofline: the u4 matmul
    // at m=16 has far less arithmetic intensity than the ridge point.
    for (const obs::KernelProfile *p : {&o0, &o2}) {
        EXPECT_TRUE(p->memory_bound);
        EXPECT_GT(p->arith_intensity, 0);
        EXPECT_LT(p->arith_intensity, p->ridge_flops_per_byte);
        EXPECT_EQ(p->blocks_profiled, 1);
    }

    // Region segmentation: the k-loop dominates and every instruction
    // landed in exactly one region.
    int64_t instrs = 0;
    for (const obs::RegionProfile &region : o2.regions)
        instrs += region.instructions;
    EXPECT_EQ(instrs, int64_t(o2.instructions.size()));
    EXPECT_GT(o2.region(obs::Region::kMainLoop).executions,
              o2.region(obs::Region::kPrologue).executions);
}

// The serialized bytes of the golden profile at O0 and O2. Any change
// to counter order, cost weights, attribution or number formatting
// shows up here as a diff; report_profile.py validates the same
// document shape in ctest.
const char *const kGoldenO0Json =
    R"({"arith_intensity":31.751937984496124,"blocks_profiled":1,"bound":"serialization","engine":"microop","instructions":[)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0,"executions":1,"id":0,"opcode":"init","region":"prologue"},)"
    R"({"components":{"alu_us":0,"dram_us":5.510725236864772,"l2_us":0.9754195348837209,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":131072,"global_store_bytes":0,"cp_async_bytes":131072,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":6.486144771748493,"executions":128,"id":1,"opcode":"cp.async","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":5.510725236864772,"l2_us":0.9754195348837209,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":131072,"global_store_bytes":0,"cp_async_bytes":131072,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":6.486144771748493,"executions":128,"id":2,"opcode":"cp.async","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":1.28,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":128},"est_us":1.28,"executions":128,"id":3,"opcode":"cp.async.commit_group","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0,"executions":128,"id":4,"opcode":"cp.async.wait_group","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":1.28,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":128,"cp_commits":0},"est_us":1.28,"executions":128,"id":5,"opcode":"bar.sync","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":6,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":7,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":8,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":9,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":10,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":11,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":12,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":13,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.4653056,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":131072,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.4653056,"executions":128,"id":14,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0.9306112,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":262144,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.9306112,"executions":128,"id":15,"opcode":"cast","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":16,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":17,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":18,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":19,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":20,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":21,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":22,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":23,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":1.28,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":128,"cp_commits":0},"est_us":1.28,"executions":128,"id":24,"opcode":"bar.sync","region":"main_loop"},)"
    R"({"components":{"alu_us":0.0036352,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":1024,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.0036352,"executions":1,"id":25,"opcode":"cast","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":26,"opcode":"stg","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":27,"opcode":"stg","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":28,"opcode":"stg","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":29,"opcode":"stg","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":30,"opcode":"stg","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":31,"opcode":"stg","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":32,"opcode":"stg","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":33,"opcode":"stg","region":"epilogue"})"
    R"(],"kernel":"matmul_u4_n4096_k4096_bm16_bn64_bk32_s1_tc1x2","latency":{"alu_us":0.93436,"blocks":64,"dram_us":11.107555555555557,"l2_us":1.96608,"launch_us":4,"occupancy_blocks_per_sm":16,"pipelined":false,"serial_us":74.24000000000001,"simt_us":0,"smem_us":1.3959168,"tc_us":6.581117878453039,"total_us":97.8947534340086},"memory_bound":true,"regions":[)"
    R"({"bound":"dram","components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"executions":1,"instructions":1,"region":"prologue"},)"
    R"({"bound":"serialization","components":{"alu_us":0.9306112,"dram_us":11.021450473729544,"l2_us":1.9508390697674418,"serial_us":74.24000000000001,"simt_us":0,"smem_us":1.3959167999999997,"tc_us":6.581117878453041},"counters":{"global_load_bytes":262144,"global_store_bytes":0,"cp_async_bytes":262144,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":393216,"smem_store_bytes":0,"lds_ops":2304,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":2048,"mma_flops":8388608,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":262144,"cast_scalar_elems":0,"bar_syncs":256,"cp_commits":128},"executions":3072,"instructions":24,"region":"main_loop"},)"
    R"({"bound":"dram","components":{"alu_us":0.0037487999999999983,"dram_us":0.08610508182601206,"l2_us":0.01524093023255814,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":2048,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":16,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":1024,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"executions":9,"instructions":9,"region":"epilogue"})"
    R"(],"ridge_flops_per_byte":209.49074074074073,"totals":{"global_load_bytes":262144,"global_store_bytes":2048,"cp_async_bytes":262144,"global_sectors":0,"ldg_ops":0,"stg_ops":16,"bit_extract_ops":0,"smem_load_bytes":393216,"smem_store_bytes":0,"lds_ops":2304,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":2048,"mma_flops":8388608,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":263168,"cast_scalar_elems":0,"bar_syncs":256,"cp_commits":128}})";

const char *const kGoldenO2Json =
    R"({"arith_intensity":31.751937984496124,"blocks_profiled":1,"bound":"dram","engine":"microop","instructions":[)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0,"executions":1,"id":0,"opcode":"init","region":"prologue"},)"
    R"({"components":{"alu_us":0,"dram_us":0.04305254091300603,"l2_us":0.00762046511627907,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":1024,"global_store_bytes":0,"cp_async_bytes":1024,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.0506730060292851,"executions":1,"id":1,"opcode":"cp.async","region":"prologue"},)"
    R"({"components":{"alu_us":0,"dram_us":0.04305254091300603,"l2_us":0.00762046511627907,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":1024,"global_store_bytes":0,"cp_async_bytes":1024,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.0506730060292851,"executions":1,"id":2,"opcode":"cp.async","region":"prologue"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0.01,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":1},"est_us":0.01,"executions":1,"id":3,"opcode":"cp.async.commit_group","region":"prologue"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0,"executions":128,"id":4,"opcode":"cp.async.wait_group","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":1.28,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":128,"cp_commits":0},"est_us":1.28,"executions":128,"id":5,"opcode":"bar.sync","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":5.467672695951766,"l2_us":0.9677990697674419,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":130048,"global_store_bytes":0,"cp_async_bytes":130048,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":6.435471765719208,"executions":127,"id":6,"opcode":"cp.async","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":5.467672695951766,"l2_us":0.9677990697674419,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":130048,"global_store_bytes":0,"cp_async_bytes":130048,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":6.435471765719208,"executions":127,"id":7,"opcode":"cp.async","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":1.27,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":127},"est_us":1.27,"executions":127,"id":8,"opcode":"cp.async.commit_group","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":9,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":10,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":11,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":12,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":13,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":14,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":15,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.1163264,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":32768,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.1163264,"executions":128,"id":16,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0.4653056,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":131072,"smem_store_bytes":0,"lds_ops":256,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.4653056,"executions":128,"id":17,"opcode":"lds","region":"main_loop"},)"
    R"({"components":{"alu_us":0.9306112,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":262144,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.9306112,"executions":128,"id":18,"opcode":"cast","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":19,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":20,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":21,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":22,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":23,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":24,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":25,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0.8226397348066299},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":256,"mma_flops":1048576,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.8226397348066299,"executions":128,"id":26,"opcode":"mma","region":"main_loop"},)"
    R"({"components":{"alu_us":0,"dram_us":0,"l2_us":0,"serial_us":1.28,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":128,"cp_commits":0},"est_us":1.28,"executions":128,"id":27,"opcode":"bar.sync","region":"main_loop"},)"
    R"({"components":{"alu_us":0.0036352,"dram_us":0,"l2_us":0,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":0,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":1024,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.0036352,"executions":1,"id":28,"opcode":"cast","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":29,"opcode":"stg","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":30,"opcode":"stg","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":31,"opcode":"stg","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":32,"opcode":"stg","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":33,"opcode":"stg","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":34,"opcode":"stg","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":35,"opcode":"stg","region":"epilogue"},)"
    R"({"components":{"alu_us":1.42e-05,"dram_us":0.010763135228251508,"l2_us":0.0019051162790697674,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":256,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":2,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"est_us":0.012682451507321276,"executions":1,"id":36,"opcode":"stg","region":"epilogue"})"
    R"(],"kernel":"matmul_u4_n4096_k4096_bm16_bn64_bk32_s1_tc1x2","latency":{"alu_us":0.93436,"blocks":64,"dram_us":11.107555555555557,"l2_us":1.96608,"launch_us":4,"occupancy_blocks_per_sm":16,"pipelined":true,"serial_us":4.39,"simt_us":0,"smem_us":1.3959168,"tc_us":6.581117878453039,"total_us":21.990124985831798},"memory_bound":true,"regions":[)"
    R"({"bound":"dram","components":{"alu_us":0,"dram_us":0.08610508182601206,"l2_us":0.01524093023255814,"serial_us":0.01,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":2048,"global_store_bytes":0,"cp_async_bytes":2048,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":0,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":1},"executions":4,"instructions":4,"region":"prologue"},)"
    R"({"bound":"dram","components":{"alu_us":0.9306112,"dram_us":10.935345391903532,"l2_us":1.9355981395348838,"serial_us":4.38,"simt_us":0,"smem_us":1.3959167999999997,"tc_us":6.581117878453041},"counters":{"global_load_bytes":260096,"global_store_bytes":0,"cp_async_bytes":260096,"global_sectors":0,"ldg_ops":0,"stg_ops":0,"bit_extract_ops":0,"smem_load_bytes":393216,"smem_store_bytes":0,"lds_ops":2304,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":2048,"mma_flops":8388608,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":262144,"cast_scalar_elems":0,"bar_syncs":256,"cp_commits":127},"executions":3069,"instructions":24,"region":"main_loop"},)"
    R"({"bound":"dram","components":{"alu_us":0.0037487999999999983,"dram_us":0.08610508182601206,"l2_us":0.01524093023255814,"serial_us":0,"simt_us":0,"smem_us":0,"tc_us":0},"counters":{"global_load_bytes":0,"global_store_bytes":2048,"cp_async_bytes":0,"global_sectors":0,"ldg_ops":0,"stg_ops":16,"bit_extract_ops":0,"smem_load_bytes":0,"smem_store_bytes":0,"lds_ops":0,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":0,"mma_flops":0,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":1024,"cast_scalar_elems":0,"bar_syncs":0,"cp_commits":0},"executions":9,"instructions":9,"region":"epilogue"})"
    R"(],"ridge_flops_per_byte":209.49074074074073,"totals":{"global_load_bytes":262144,"global_store_bytes":2048,"cp_async_bytes":262144,"global_sectors":0,"ldg_ops":0,"stg_ops":16,"bit_extract_ops":0,"smem_load_bytes":393216,"smem_store_bytes":0,"lds_ops":2304,"sts_ops":0,"ldmatrix_ops":0,"mma_ops":2048,"mma_flops":8388608,"simt_fma":0,"alu_elt_ops":0,"cast_vec_elems":263168,"cast_scalar_elems":0,"bar_syncs":256,"cp_commits":128}})";

TEST(ProfileGolden, JsonBytesArePinned)
{
    EXPECT_EQ(goldenProfile(compiler::OptLevel::O0).toJson(),
              kGoldenO0Json);
    EXPECT_EQ(goldenProfile(compiler::OptLevel::O2).toJson(),
              kGoldenO2Json);
}

// ---------------------------------------------------------------------
// Disarmed mode: profiling off leaves runs byte-identical.
// ---------------------------------------------------------------------

TEST(ProfileDisarmed, RunsAreByteIdenticalWithAndWithoutProfiling)
{
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 1;
    lir::Kernel kernel =
        compiler::compile(kernels::buildMatmul(cfg).main_program, {});
    opt::OracleConfig config;
    config.scalars = {{"m", 16}};

    sim::Device plain_a(config.device_bytes);
    sim::Device plain_b(config.device_bytes);
    sim::Device armed(config.device_bytes);
    opt::runSeeded(kernel, config, plain_a);
    opt::runSeeded(kernel, config, plain_b);
    obs::ProfileCollector collector(kernel);
    opt::runSeeded(kernel, config, armed, sim::Engine::kMicroOps,
                   &collector);

    std::string detail;
    EXPECT_TRUE(opt::devicesIdentical(plain_a, plain_b,
                                      config.device_bytes, &detail))
        << detail;
    EXPECT_TRUE(opt::devicesIdentical(plain_a, armed,
                                      config.device_bytes, &detail))
        << detail;
    EXPECT_GT(collector.numInstructions(), 0u);
}

// ---------------------------------------------------------------------
// The sink document (what TILUS_PROFILE writes).
// ---------------------------------------------------------------------

TEST(ProfileSink, DocumentCarriesSchemaAndRecordedProfiles)
{
    obs::ProfileSink &sink = obs::ProfileSink::instance();
    ASSERT_FALSE(sink.enabled()) << "TILUS_PROFILE armed under ctest";
    sink.enable("/dev/null");
    obs::KernelProfile profile = goldenProfile(compiler::OptLevel::O2);
    sink.record(profile);
    EXPECT_EQ(sink.profileCount(), 1);
    const std::string doc = sink.document();
    EXPECT_NE(doc.find("\"schema\":\"tilus-profile-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"build_info\":"), std::string::npos);
    EXPECT_NE(doc.find(profile.toJson()), std::string::npos);
    sink.disable();
    EXPECT_EQ(sink.profileCount(), 0);
}

} // namespace
} // namespace tilus
