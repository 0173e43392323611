/**
 * @file
 * Micro-op engine tests: the engine-vs-engine differential oracle over
 * the kernel suite (the pre-decoded engine must be byte-identical to
 * the tree-walk interpreter on identically seeded devices), decode-time
 * expression classification (affine / tabulated / generic, including a
 * deliberately non-affine address that pins the per-thread fallback
 * path), ghost-trace statistics parity (the autotuner's input), the
 * runtime's decoded-program cache, undecodable kernels as errors, and
 * the satellite fast paths (dense ir::Env, byte-aligned packing).
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

#include "autotune/tuner.h"
#include "cache/compile_pool.h"
#include "compiler/compiler.h"
#include "dtype/packing.h"
#include "fuzz/fuzz.h"
#include "kernels/elementwise.h"
#include "kernels/matmul.h"
#include "lang/script.h"
#include "obs/metrics.h"
#include "opt/oracle.h"
#include "runtime/runtime.h"
#include "sim/interpreter.h"
#include "sim/microop.h"
#include "test_helpers.h"

namespace tilus {
namespace {

using namespace tilus::ir;

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

/** Run one program's kernel under both engines and compare all DRAM. */
void
expectEnginesIdentical(const ir::Program &program, uint64_t seed,
                       compiler::OptLevel opt_level = compiler::OptLevel::O2)
{
    compiler::CompileOptions options;
    options.opt_level = opt_level;
    lir::Kernel kernel = compiler::compile(program, options);
    opt::OracleConfig config;
    config.seed = seed;
    config.scalars = {{"m", 16}, {"n", 512}};
    opt::OracleReport report = opt::diffEngines(kernel, config);
    EXPECT_TRUE(report.identical)
        << program.name << ": " << report.detail << "\n"
        << report.listing_opt;
}

// ---------------------------------------------------------------------
// Differential suite: micro-op engine vs tree walk, whole-DRAM compare.
// ---------------------------------------------------------------------

TEST(MicroOpDiff, MatmulSuiteBitIdentical)
{
    uint64_t seed = 900;
    for (compiler::OptLevel level :
         {compiler::OptLevel::O0, compiler::OptLevel::O2}) {
        for (int stages : {1, 2}) {
            auto cfg = baseConfig(tilus::uint4());
            cfg.stages = stages;
            expectEnginesIdentical(
                kernels::buildMatmul(cfg).main_program, seed++, level);
        }
        {
            auto cfg = baseConfig(tilus::float16());
            cfg.stages = 1;
            expectEnginesIdentical(
                kernels::buildMatmul(cfg).main_program, seed++, level);
        }
    }
}

TEST(MicroOpDiff, GroupedScalesAndUntransformed)
{
    {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = 1;
        cfg.group_size = 64;
        expectEnginesIdentical(kernels::buildMatmul(cfg).main_program,
                               920);
    }
    {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = 1;
        cfg.transform_weights = false; // LoadGlobalBits sub-byte path
        expectEnginesIdentical(kernels::buildMatmul(cfg).main_program,
                               921);
    }
    {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = 1;
        cfg.convert_via_smem = true;
        expectEnginesIdentical(kernels::buildMatmul(cfg).main_program,
                               922);
    }
}

TEST(MicroOpDiff, SimtDecodePath)
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
    expectEnginesIdentical(kernels::buildMatmul(cfg).main_program, 930);
}

TEST(MicroOpDiff, ElementwiseAndTransform)
{
    expectEnginesIdentical(kernels::buildVectorAdd(2, 4).program, 940);
    expectEnginesIdentical(kernels::buildAxpy(1, 2).program, 941);
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 2;
    auto bundle = kernels::buildMatmul(cfg);
    ASSERT_TRUE(bundle.transform_program.has_value());
    expectEnginesIdentical(*bundle.transform_program, 942);
}

// ---------------------------------------------------------------------
// Expression classification: the tid-affine fast path and its
// fallbacks.
// ---------------------------------------------------------------------

TEST(MicroOpDecode, MatmulKernelsDecodeWithoutFallback)
{
    for (int stages : {1, 2}) {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = stages;
        lir::Kernel kernel = compiler::compile(
            kernels::buildMatmul(cfg).main_program, {});
        sim::MicroProgram program = sim::compileMicroProgram(kernel);
        ASSERT_TRUE(program.ok()) << program.fallbackReason();
        // The swizzled layouts decode into the fast classes; a few
        // residual generic expressions are fine, a majority is not.
        EXPECT_GT(program.numAffineExprs() + program.numTabulatedExprs(),
                  program.numGenericExprs());
    }
}

TEST(MicroOpDecode, NonAffineAddressTakesGenericPath)
{
    // (tid / 4) * n with a *runtime* n is neither affine in tid nor
    // separable into base + f(tid) at decode time: the engine must keep
    // the per-thread slot-program fallback and still match the tree
    // walk byte for byte.
    lang::Script s("nonaffine", 1);
    Var n = s.paramScalar("n");
    Var p = s.paramPointer("p", tilus::float32());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, tilus::float32(), {Expr(n), Expr(n)});
    Layout layout = spatial(8, 4);
    auto r = s.loadGlobal(g, layout, {constInt(0), constInt(0)}, "r");
    s.storeGlobal(r, g, {constInt(8), constInt(0)});
    ir::Program prog = s.finish();

    lir::Kernel kernel = compiler::compile(prog, {});
    sim::MicroProgram program = sim::compileMicroProgram(kernel);
    ASSERT_TRUE(program.ok()) << program.fallbackReason();
    EXPECT_GT(program.numGenericExprs(), 0) << lir::printKernel(kernel);

    opt::OracleConfig config;
    config.scalars = {{"n", 32}};
    opt::OracleReport report = opt::diffEngines(kernel, config);
    EXPECT_TRUE(report.identical) << report.detail;
}

TEST(MicroOpDiff, LoopVariableReadAfterLoop)
{
    // The tree walk leaves a for-loop variable bound to its last
    // iteration value (extent - 1); the flattened loop must match, not
    // leak its exit counter. An address derived from the variable
    // *after* the loop pins this byte-for-byte.
    lang::Script s("loopvar_after", 1);
    Var p = s.paramPointer("p", tilus::float32());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, tilus::float32(), {constInt(1024)});
    Layout layout = spatial(32) * local(2);
    Var captured;
    s.forRange(constInt(4), [&](Var i) {
        captured = i;
        auto r = s.loadGlobal(g, layout, {Expr(i) * 64}, "r");
        s.storeGlobal(r, g, {Expr(i) * 64 + 256});
    });
    // The loop variable reads 3 (not 4, the exit counter) here; a
    // diverging value shifts this store by 64 elements.
    auto r2 = s.loadGlobal(g, layout, {Expr(captured) * 64}, "r2");
    s.storeGlobal(r2, g, {Expr(captured) * 64 + 512});
    ir::Program prog = s.finish();

    lir::Kernel kernel = compiler::compile(prog, {});
    opt::OracleReport report = opt::diffEngines(kernel, {});
    EXPECT_TRUE(report.identical) << report.detail;
}

TEST(MicroOpDecode, AffineDecomposition)
{
    Var t = Var::make("t");
    Var u = Var::make("u");
    Expr base, stride;
    // (u + t*4) + 8 -> base u + 8, stride 4.
    Expr e = (Expr(u) + Expr(t) * 4) + 8;
    ASSERT_TRUE(ir::decomposeAffine(e, t.id(), &base, &stride));
    ir::Env env;
    env.bind(u, 100);
    EXPECT_EQ(ir::evalInt(base, env), 108);
    EXPECT_EQ(ir::evalInt(stride, env), 4);
    // t/4 is not affine in t.
    EXPECT_FALSE(
        ir::decomposeAffine(Expr(t) / 4, t.id(), &base, &stride));
    // t*t is quadratic.
    EXPECT_FALSE(
        ir::decomposeAffine(Expr(t) * Expr(t), t.id(), &base, &stride));
    // u*8 is affine with stride 0.
    ASSERT_TRUE(ir::decomposeAffine(Expr(u) * 8, t.id(), &base, &stride));
    EXPECT_EQ(ir::evalInt(stride, env), 0);
}

// ---------------------------------------------------------------------
// Ghost-trace statistics parity: the autotuner and timing model consume
// these, so both engines must count identically.
// ---------------------------------------------------------------------

void
expectStatsEqual(const sim::SimStats &a, const sim::SimStats &b)
{
#define TILUS_COUNTER_EQ(f) EXPECT_EQ(a.f, b.f) << #f;
    TILUS_SIM_COUNTERS(TILUS_COUNTER_EQ)
#undef TILUS_COUNTER_EQ
    EXPECT_EQ(a.load_bytes_by_global, b.load_bytes_by_global);
    EXPECT_EQ(a.store_bytes_by_global, b.store_bytes_by_global);
    EXPECT_EQ(a.max_groups_in_flight, b.max_groups_in_flight);
    EXPECT_EQ(a.overlapped, b.overlapped);
}

TEST(MicroOpStats, GhostTraceParity)
{
    for (int stages : {1, 2}) {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = stages;
        lir::Kernel kernel = compiler::compile(
            kernels::buildMatmul(cfg).main_program, {});
        ir::Env env;
        for (const Var &p : kernel.params)
            env.bind(p, p.name() == "m" ? 16 : 0);
        sim::RunOptions options;
        options.mode = sim::MemoryMode::kGhost;
        options.max_blocks = 1;
        options.enable_print = false;
        options.engine = sim::Engine::kTreeWalk;
        sim::SimStats tree = sim::run(kernel, env, nullptr, options);
        options.engine = sim::Engine::kMicroOps;
        sim::SimStats micro = sim::run(kernel, env, nullptr, options);
        expectStatsEqual(tree, micro);
    }
}

TEST(MicroOpStats, FunctionalRunParity)
{
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 1;
    lir::Kernel kernel =
        compiler::compile(kernels::buildMatmul(cfg).main_program, {});
    opt::OracleConfig config;
    config.scalars = {{"m", 16}};
    opt::OracleReport report = opt::diffEngines(kernel, config);
    ASSERT_TRUE(report.identical) << report.detail;
    expectStatsEqual(report.stats_ref, report.stats_opt);
}

// ---------------------------------------------------------------------
// Undecodable kernels: an error, never a silent tree-walk run.
// ---------------------------------------------------------------------

TEST(MicroOpFallback, UndecodableKernelThrowsNamingKernelAndReason)
{
    lir::Kernel kernel = testing::undecodableKernel();
    sim::MicroProgram program = sim::compileMicroProgram(kernel);
    ASSERT_FALSE(program.ok());
    EXPECT_FALSE(program.fallbackReason().empty());

    sim::RunOptions options;
    options.enable_print = false;
    try {
        sim::run(kernel, {}, nullptr, options);
        FAIL() << "sim::run executed an undecodable kernel";
    } catch (const TilusError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'undecodable'"), std::string::npos) << what;
        EXPECT_NE(what.find(program.fallbackReason()), std::string::npos)
            << what;
    }

    // The tree walk stays available as the oracle's reference engine.
    options.engine = sim::Engine::kTreeWalk;
    EXPECT_NO_THROW(sim::run(kernel, {}, nullptr, options));
}

TEST(MicroOpDecode, ConditionNested300DeepDecodes)
{
    // A verified program whose branch condition nests max(n + i,
    // e * n + i) 300 deep: each level keeps one operand on the
    // evaluation stack, so the stack must grow past 256 entries.
    lang::Script s("deep_condition", 1);
    Var n = s.paramScalar("n");
    Var p = s.paramPointer("p", tilus::float32());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, tilus::float32(), {constInt(256)});
    Layout layout = spatial(32);
    s.forRange(constInt(4), [&](Var i) {
        Expr e = i;
        for (int depth = 0; depth < 300; ++depth)
            e = maxExpr(Expr(n) + Expr(i), e * Expr(n) + Expr(i));
        // n = 1: e is 1, 301, 602, 903 for i = 0..3.
        s.ifThen(e < constInt(400), [&] {
            auto r = s.loadGlobal(g, layout, {Expr(i) * 32}, "r");
            s.storeGlobal(r, g, {Expr(i) * 32 + 128});
        });
    });
    lir::Kernel kernel = compiler::compile(s.finish(), {}); // verifies

    sim::MicroProgram program = sim::compileMicroProgram(kernel);
    ASSERT_TRUE(program.ok()) << program.fallbackReason();
    EXPECT_GT(program.maxStack(), 256);

    opt::OracleConfig config;
    config.scalars = {{"n", 1}};
    opt::OracleReport report = opt::diffEngines(kernel, config);
    EXPECT_TRUE(report.identical) << report.detail;
    EXPECT_GT(report.stats_opt.global_store_bytes, 0);
}

// ---------------------------------------------------------------------
// Runtime decoded-program cache.
// ---------------------------------------------------------------------

TEST(MicroOpRuntime, LaunchUsesCachedProgram)
{
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 1;
    runtime::Runtime rt(sim::l40s());
    auto bundle = kernels::buildMatmul(cfg);
    const lir::Kernel &kernel = rt.getOrCompile(bundle.main_program, {});
    const sim::MicroProgram *program = rt.cachedProgram(kernel);
    ASSERT_NE(program, nullptr);
    EXPECT_TRUE(program->ok()) << program->fallbackReason();
    // Decode happens once: repeated queries return the same program.
    EXPECT_EQ(rt.cachedProgram(kernel), program);
    // Foreign kernels are not in the cache.
    lir::Kernel other =
        compiler::compile(bundle.main_program, {});
    EXPECT_EQ(rt.cachedProgram(other), nullptr);

    const int64_t m = 4;
    PackedBuffer a = testing::randomActivations(m * cfg.k, 31);
    PackedBuffer b = testing::randomWeights(cfg.wdtype, cfg.k * cfg.n, 32);
    auto run = testing::runMatmul(rt, cfg, m, a, b, nullptr);
    auto want = testing::referenceMatmul(cfg, m, a, b, nullptr);
    EXPECT_LT(testing::maxRelativeError(run.result, want), 2e-2);
}

TEST(MicroOpRuntime, ConcurrentDecodeInstallsOneProgramPerKernel)
{
    // Many pool tasks race on the same few kernels: each kernel decodes
    // (at least once, outside the runtime lock) but installs exactly one
    // program, every caller sees that program, and the decode counter
    // moves once per distinct kernel.
    runtime::Runtime rt(sim::l40s());
    rt.setDiskCache(nullptr);
    std::vector<const lir::Kernel *> kernels;
    for (int stages : {1, 2}) {
        for (bool tc : {true, false}) {
            auto cfg = baseConfig(tilus::uint4());
            cfg.stages = stages;
            if (!tc) {
                cfg.bm = 2;
                cfg.bn = 128;
                cfg.simt_warps = 2;
                cfg.use_tensor_cores = false;
            }
            kernels.push_back(&rt.getOrCompile(
                kernels::buildMatmul(cfg).main_program, {}));
        }
    }
    auto &decodes =
        obs::Registry::instance().counter("sim_microop_decodes_total");
    const int64_t before = decodes.value();
    constexpr int64_t kTasks = 64;
    std::vector<const sim::MicroProgram *> seen(kTasks);
    cache::parallelFor(
        kTasks,
        [&](int64_t i) {
            seen[i] = rt.cachedProgram(*kernels[i % kernels.size()]);
        },
        /*threads=*/4);
    EXPECT_EQ(decodes.value() - before,
              static_cast<int64_t>(kernels.size()));
    for (int64_t i = 0; i < kTasks; ++i) {
        const lir::Kernel &kernel = *kernels[i % kernels.size()];
        ASSERT_NE(seen[i], nullptr);
        EXPECT_TRUE(seen[i]->ok()) << seen[i]->fallbackReason();
        EXPECT_EQ(seen[i], rt.cachedProgram(kernel)) << "task " << i;
    }
    EXPECT_EQ(decodes.value() - before,
              static_cast<int64_t>(kernels.size()));
}

TEST(MicroOpRuntime, ColdSweepDecodesEachProbeKernelOnce)
{
    // A cold sweep pre-decodes its probe kernels (outers 1 and 2) on
    // the compile pool; the serial estimation loop reuses them and the
    // full-depth kernels, which are only priced, are never decoded.
    autotune::SweepRequest req;
    req.n = 256;
    req.k = 256;
    req.m = 12; // both template families: tensor core and SIMT
    req.space.bm_tc = {16};
    req.space.bn = {64, 128};
    req.space.bk = {32};
    req.space.warps_m = {1};
    req.space.warps_n = {2};
    req.space.simt_warps = {2};
    req.space.stages = {1, 2};

    std::set<cache::Fingerprint> probes, full;
    for (const kernels::MatmulConfig &cfg : autotune::enumerateConfigs(
             req.wdtype, req.n, req.k, req.m, req.space)) {
        for (int outers = 1; outers <= 2; ++outers)
            probes.insert(cache::fingerprintProgram(
                kernels::buildMatmul(autotune::probeConfig(cfg, outers))
                    .main_program,
                req.opts));
        full.insert(cache::fingerprintProgram(
            kernels::buildMatmul(cfg).main_program, req.opts));
    }
    ASSERT_GT(probes.size(), 4u);
    for (const cache::Fingerprint &fp : full)
        ASSERT_EQ(probes.count(fp), 0u) << "full-depth kernel is a probe";

    runtime::Runtime rt(sim::l40s());
    rt.setDiskCache(nullptr);
    cache::TuneDb db("", /*enabled=*/false);
    auto &decodes =
        obs::Registry::instance().counter("sim_microop_decodes_total");
    const int64_t before = decodes.value();
    autotune::TuneResult result = autotune::sweepCached(rt, req, &db);
    EXPECT_GT(result.candidates_tried, 0);
    EXPECT_EQ(rt.compileCount(),
              static_cast<int>(probes.size() + full.size()));
    EXPECT_EQ(decodes.value() - before,
              static_cast<int64_t>(probes.size()));
}

/** A kernel to decode plus the oracle bindings that run it. */
struct TidTableCase
{
    std::string name;
    lir::Kernel kernel;
    opt::OracleConfig oracle;
};

/**
 * The suite kernels at O0 and O2, the probe kernels of one
 * default-TuneSpace sweep (both template families; compiled on the
 * pool), and the checked-in fuzz corpus.
 */
std::vector<TidTableCase>
tidTableCases()
{
    struct Source
    {
        std::string name;
        ir::Program program;
        compiler::CompileOptions options;
        opt::OracleConfig oracle;
    };
    std::vector<Source> sources;
    // One block per run: every block reads the same tid tables.
    opt::OracleConfig suite_oracle;
    suite_oracle.device_bytes = 1 << 20;
    suite_oracle.max_blocks = 1;
    suite_oracle.scalars = {{"m", 16}, {"n", 512}};
    std::vector<std::pair<std::string, ir::Program>> suite;
    for (int stages : {1, 2}) {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = stages;
        suite.emplace_back(cfg.name(),
                           kernels::buildMatmul(cfg).main_program);
    }
    {
        auto cfg = baseConfig(tilus::float16());
        cfg.stages = 1;
        suite.emplace_back(cfg.name(),
                           kernels::buildMatmul(cfg).main_program);
        cfg = baseConfig(tilus::uint4());
        cfg.stages = 1;
        cfg.group_size = 64;
        suite.emplace_back("grouped",
                           kernels::buildMatmul(cfg).main_program);
        cfg.group_size = 0;
        cfg.transform_weights = false;
        suite.emplace_back("untransformed",
                           kernels::buildMatmul(cfg).main_program);
        cfg.transform_weights = true;
        cfg.convert_via_smem = true;
        suite.emplace_back("via-smem",
                           kernels::buildMatmul(cfg).main_program);
        cfg = baseConfig(tilus::uint4());
        cfg.stages = 2;
        suite.emplace_back("transform",
                           *kernels::buildMatmul(cfg).transform_program);
    }
    suite.emplace_back("vector-add", kernels::buildVectorAdd(2, 4).program);
    suite.emplace_back("axpy", kernels::buildAxpy(1, 2).program);
    for (compiler::OptLevel level :
         {compiler::OptLevel::O0, compiler::OptLevel::O2}) {
        compiler::CompileOptions options;
        options.opt_level = level;
        for (const auto &[name, program] : suite)
            sources.push_back({name, program, options, suite_oracle});
    }

    autotune::SweepRequest req;
    req.n = 256;
    req.k = 256;
    req.m = 12;
    req.group_size = 64;
    opt::OracleConfig probe_oracle = suite_oracle;
    probe_oracle.scalars = {{"m", req.m}};
    for (kernels::MatmulConfig cfg : autotune::enumerateConfigs(
             req.wdtype, req.n, req.k, req.m, req.space)) {
        cfg.group_size = req.group_size;
        for (int outers = 1; outers <= 2; ++outers) {
            const kernels::MatmulConfig probe =
                autotune::probeConfig(cfg, outers);
            sources.push_back({probe.name(),
                               kernels::buildMatmul(probe).main_program,
                               req.opts, probe_oracle});
        }
    }

    std::vector<TidTableCase> cases(sources.size());
    cache::parallelFor(
        static_cast<int64_t>(sources.size()),
        [&](int64_t i) {
            const Source &src = sources[i];
            cases[i] = {src.name,
                        compiler::compile(src.program, src.options),
                        src.oracle};
        },
        /*threads=*/4);

    opt::OracleConfig corpus_oracle;
    corpus_oracle.device_bytes = 1 << 20;
    const std::filesystem::path corpus =
        std::filesystem::path(__FILE__).parent_path() / "corpus";
    for (const auto &entry : std::filesystem::directory_iterator(corpus))
        if (entry.path().extension() == ".lirk")
            cases.push_back({entry.path().filename().string(),
                             fuzz::readCorpusKernel(entry.path().string()),
                             corpus_oracle});
    return cases;
}

/** Postorder spelling of a pure-tid expression: equal spellings are
    exactly equal slot programs (constants by ivalue, as decode emits). */
std::string
tidPartKey(const ir::Expr &expr)
{
    switch (expr->kind()) {
      case ir::ExprKind::kConst:
        return "c" + std::to_string(
                         static_cast<const ir::ConstNode &>(*expr).ivalue);
      case ir::ExprKind::kVar:
        return "t";
      case ir::ExprKind::kUnary: {
        const auto &node = static_cast<const ir::UnaryNode &>(*expr);
        return "u" + std::to_string(static_cast<int>(node.op)) + "(" +
               tidPartKey(node.a) + ")";
      }
      case ir::ExprKind::kBinary: {
        const auto &node = static_cast<const ir::BinaryNode &>(*expr);
        return "b" + std::to_string(static_cast<int>(node.op)) + "(" +
               tidPartKey(node.a) + "," + tidPartKey(node.b) + ")";
      }
      case ir::ExprKind::kSelect: {
        const auto &node = static_cast<const ir::SelectNode &>(*expr);
        return "s(" + tidPartKey(node.cond) + "," +
               tidPartKey(node.on_true) + "," + tidPartKey(node.on_false) +
               ")";
      }
    }
    return "?";
}

/** The && operands of a comparison conjunction, left to right. */
void
flattenAnd(const ir::Expr &expr, std::vector<ir::Expr> &out)
{
    if (expr->kind() == ir::ExprKind::kBinary) {
        const auto &node = static_cast<const ir::BinaryNode &>(*expr);
        if (node.op == ir::BinaryOp::kAnd) {
            flattenAnd(node.a, out);
            flattenAnd(node.b, out);
            return;
        }
    }
    out.push_back(expr);
}

/** Every (decoded expression, source expression) pair of one leaf. */
std::vector<std::pair<const sim::ExprRef *, ir::Expr>>
leafExprs(const sim::DecodedLeaf &leaf)
{
    std::vector<std::pair<const sim::ExprRef *, ir::Expr>> out;
    auto pred = [&](const sim::PredRef &ref, const ir::Expr &expr) {
        if (!expr)
            return;
        if (ref.conj.empty()) {
            out.emplace_back(&ref.whole, expr);
            return;
        }
        std::vector<ir::Expr> conjuncts;
        flattenAnd(expr, conjuncts);
        ASSERT_EQ(conjuncts.size(), ref.conj.size());
        for (size_t i = 0; i < conjuncts.size(); ++i) {
            const auto &cmp =
                static_cast<const ir::BinaryNode &>(*conjuncts[i]);
            out.emplace_back(&ref.conj[i].lhs, cmp.a);
            out.emplace_back(&ref.conj[i].rhs, cmp.b);
        }
    };
    std::visit(
        [&](const auto &o) {
            using T = std::decay_t<decltype(o)>;
            if constexpr (std::is_same_v<T, lir::LoadGlobalVec> ||
                          std::is_same_v<T, lir::StoreGlobalVec> ||
                          std::is_same_v<T, lir::StoreSharedVec>) {
                out.emplace_back(&leaf.addr, o.addr);
                pred(leaf.pred, o.pred);
            } else if constexpr (std::is_same_v<T, lir::LoadGlobalBits> ||
                                 std::is_same_v<T, lir::StoreGlobalBits>) {
                out.emplace_back(&leaf.addr, o.bit_addr);
            } else if constexpr (std::is_same_v<T, lir::LoadSharedVec>) {
                out.emplace_back(&leaf.addr, o.addr);
            } else if constexpr (std::is_same_v<T, lir::CpAsync>) {
                out.emplace_back(&leaf.addr, o.smem_addr);
                out.emplace_back(&leaf.addr2, o.gmem_addr);
                pred(leaf.pred, o.pred);
                pred(leaf.pred2, o.issue_pred);
            } else if constexpr (std::is_same_v<T, lir::EltwiseScalar>) {
                if (!leaf.scalar_is_const)
                    out.emplace_back(&leaf.scalar, o.scalar);
            }
        },
        *leaf.op);
    return out;
}

/** kTabulated references anywhere in one leaf. */
int
countTabulated(const sim::DecodedLeaf &leaf)
{
    auto one = [](const sim::ExprRef &ref) {
        return ref.cls == sim::ExprClass::kTabulated ? 1 : 0;
    };
    auto pred = [&](const sim::PredRef &ref) {
        int n = one(ref.whole);
        for (const sim::PredRef::Cmp &cmp : ref.conj)
            n += one(cmp.lhs) + one(cmp.rhs);
        return n;
    };
    return one(leaf.addr) + one(leaf.addr2) + one(leaf.scalar) +
           pred(leaf.pred) + pred(leaf.pred2);
}

TEST(MicroOpRuntime, TidTablesMatchTreeWalk)
{
    // Decode every case through one shared memo (concurrently, on the
    // pool) and through a private one. Each tid table must equal
    // ir::evalInt of its pure-tid part on every thread; the shared memo
    // must hand out one table per key (thread count + slot program) and
    // distinct tables for distinct keys; and micro-op runs must be
    // byte-identical either way.
    const std::vector<TidTableCase> cases = tidTableCases();
    const int64_t n_cases = static_cast<int64_t>(cases.size());
    sim::TidTableMemo memo;
    std::vector<sim::MicroProgram> shared_decodes(cases.size());
    std::vector<sim::MicroProgram> own_decodes(cases.size());
    cache::parallelFor(
        n_cases,
        [&](int64_t i) {
            shared_decodes[i] =
                sim::compileMicroProgram(cases[i].kernel, &memo);
            own_decodes[i] = sim::compileMicroProgram(cases[i].kernel);
        },
        /*threads=*/4);

    // Both decodes of every case, run on identically seeded devices.
    struct RunPair
    {
        bool identical = false;
        std::string detail;
        sim::SimStats with_memo, without;
    };
    std::vector<RunPair> runs(cases.size());
    cache::parallelFor(
        n_cases,
        [&](int64_t i) {
            const TidTableCase &c = cases[i];
            if (!shared_decodes[i].ok() || !own_decodes[i].ok())
                return;
            sim::Device a(c.oracle.device_bytes), b(c.oracle.device_bytes);
            runs[i].with_memo =
                opt::runSeeded(c.kernel, c.oracle, a, sim::Engine::kMicroOps,
                               nullptr, &shared_decodes[i]);
            runs[i].without =
                opt::runSeeded(c.kernel, c.oracle, b, sim::Engine::kMicroOps,
                               nullptr, &own_decodes[i]);
            runs[i].identical = opt::devicesIdentical(
                a, b, c.oracle.device_bytes, &runs[i].detail);
        },
        /*threads=*/4);

    std::map<std::string, const std::vector<int64_t> *> table_of_key;
    std::map<const std::vector<int64_t> *, std::string> key_of_table;
    int64_t tabulated = 0;
    for (size_t n = 0; n < cases.size(); ++n) {
        const TidTableCase &c = cases[n];
        SCOPED_TRACE(c.name);
        const sim::MicroProgram &shared = shared_decodes[n];
        const sim::MicroProgram &own = own_decodes[n];
        ASSERT_TRUE(shared.ok()) << shared.fallbackReason();
        ASSERT_TRUE(own.ok()) << own.fallbackReason();
        ASSERT_EQ(shared.leaves().size(), own.leaves().size());
        const int threads = c.kernel.block_threads;
        for (size_t l = 0; l < shared.leaves().size(); ++l) {
            const sim::DecodedLeaf &leaf = shared.leaves()[l];
            int checked = 0;
            for (const auto &[ref, expr] : leafExprs(leaf)) {
                if (ref->cls != sim::ExprClass::kTabulated)
                    continue;
                ++checked;
                const lir::ThreadExprParts parts =
                    lir::classifyThreadExpr(expr);
                ASSERT_EQ(parts.kind, lir::ThreadExprKind::kSeparable);
                ASSERT_EQ(ref->table->size(), static_cast<size_t>(threads));
                ir::Env env;
                for (int t = 0; t < threads; ++t) {
                    env.bind(lir::tidVar(), t);
                    ASSERT_EQ((*ref->table)[t],
                              ir::evalInt(parts.tid_part, env))
                        << "leaf " << l << " thread " << t;
                }
                const std::string key = std::to_string(threads) + ":" +
                                        tidPartKey(parts.tid_part);
                const std::vector<int64_t> *table = ref->table.get();
                auto [by_key, new_key] =
                    table_of_key.emplace(key, table);
                EXPECT_EQ(by_key->second, table)
                    << "equal keys, different tables: " << key;
                auto [by_table, new_table] =
                    key_of_table.emplace(table, key);
                EXPECT_EQ(by_table->second, key)
                    << "one table, different keys";
                EXPECT_EQ(new_key, new_table);
            }
            EXPECT_EQ(checked, countTabulated(leaf)) << "leaf " << l;
            EXPECT_EQ(countTabulated(own.leaves()[l]), checked);
            tabulated += checked;
        }

        const RunPair &run = runs[n];
        EXPECT_TRUE(run.identical) << run.detail;
#define TILUS_EXPECT_COUNTER_EQ(f) \
    EXPECT_EQ(run.with_memo.f, run.without.f) << #f;
        TILUS_SIM_COUNTERS(TILUS_EXPECT_COUNTER_EQ)
#undef TILUS_EXPECT_COUNTER_EQ
    }
    // The sweep's probes repeat their swizzled address parts: the memo
    // must actually share.
    EXPECT_GT(tabulated, 0);
    EXPECT_LT(static_cast<int64_t>(table_of_key.size()), tabulated);
}

// ---------------------------------------------------------------------
// Satellite fast paths: dense Env, byte-aligned packing.
// ---------------------------------------------------------------------

TEST(MicroOpSatellites, EnvDenseAndSparseIds)
{
    ir::Env env;
    // Dense window anchored at the first bound id.
    env.bind(1000, 7);
    env.bind(1001, 8);
    // Below the anchor and far past the window: linear-scan store.
    env.bind(3, 1);
    env.bind(1000 + (1 << 20), 2);
    env.bind(-5, 3);
    int64_t out = 0;
    EXPECT_TRUE(env.lookup(1000, out));
    EXPECT_EQ(out, 7);
    EXPECT_TRUE(env.lookup(1001, out));
    EXPECT_EQ(out, 8);
    EXPECT_TRUE(env.lookup(3, out));
    EXPECT_EQ(out, 1);
    EXPECT_TRUE(env.lookup(1000 + (1 << 20), out));
    EXPECT_EQ(out, 2);
    EXPECT_TRUE(env.lookup(-5, out));
    EXPECT_EQ(out, 3);
    EXPECT_FALSE(env.lookup(1002, out));
    EXPECT_FALSE(env.lookup(4, out));
    // Rebinding updates in place for both stores.
    env.bind(1000, 70);
    env.bind(3, 10);
    EXPECT_TRUE(env.lookup(1000, out));
    EXPECT_EQ(out, 70);
    EXPECT_TRUE(env.lookup(3, out));
    EXPECT_EQ(out, 10);
}

TEST(MicroOpSatellites, PackingFastPathsMatchSlowPath)
{
    // Byte-aligned widths and sub-byte single-byte reads must agree
    // with the generic bit loop on every offset.
    std::vector<uint8_t> buf(64);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<uint8_t>(0x5A + i * 37);
    for (int width : {4, 8, 16, 24, 32, 64}) {
        for (int64_t offset = 0; offset + width <= 256; offset += width) {
            EXPECT_EQ(getBits(buf.data(), offset, width),
                      getBitsSlow(buf.data(), offset, width))
                << "width " << width << " offset " << offset;
        }
    }
    std::vector<uint8_t> a(64, 0xCC), b(64, 0xCC);
    for (int width : {4, 8, 16, 32, 64}) {
        for (int64_t offset = 0; offset + width <= 256; offset += width) {
            uint64_t value = 0x0123456789ABCDEFull >> (64 - width);
            setBits(a.data(), offset, width, value);
            setBitsSlow(b.data(), offset, width, value);
        }
        EXPECT_EQ(a, b) << "width " << width;
    }
}

} // namespace
} // namespace tilus
