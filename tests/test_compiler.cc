/**
 * @file
 * Compiler unit tests: memory planning liveness/reuse, lowering and
 * automatic vectorization (inspected through the PTX-like listing),
 * ldmatrix/mma instruction selection, the fast LOP3/PRMT casting
 * sequences against the reference codec, end-to-end elementwise
 * kernels including bounds predication, and the exact CompileError text
 * of the lowering rejections.
 */
#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "compiler/fast_cast.h"
#include "compiler/memory_planner.h"
#include "dtype/cast.h"
#include "dtype/float_codec.h"
#include "kernels/elementwise.h"
#include "kernels/matmul.h"
#include "lang/script.h"
#include "runtime/runtime.h"
#include "sim/gpu_spec.h"
#include "support/rng.h"

namespace tilus {
namespace {

using namespace tilus::ir;

// ---------------------------------------------------------------------
// Fast casting sequences (Section 7.2).
// ---------------------------------------------------------------------

TEST(FastCast, PrmtSelectsBytes)
{
    uint32_t a = 0x03020100;
    uint32_t b = 0x67666564;
    EXPECT_EQ(compiler::prmt(a, b, 0x3210u), a);
    EXPECT_EQ(compiler::prmt(a, b, 0x7654u), b);
    EXPECT_EQ(compiler::prmt(a, b, 0x4000u), 0x64000000u | (a & 0xFF));
}

TEST(FastCast, Lop3TruthTables)
{
    uint32_t a = 0xF0F0F0F0, b = 0xCCCCCCCC, c = 0xAAAAAAAA;
    EXPECT_EQ(compiler::lop3(a, b, c, 0x80), a & b & c);
    EXPECT_EQ(compiler::lop3(a, b, c, 0xFE), a | b | c);
    EXPECT_EQ(compiler::lop3(a, b, c, 0xEA), (a & b) | c);
    EXPECT_EQ(compiler::lop3(a, b, c, 0x96), a ^ b ^ c);
}

TEST(FastCast, U4MagicBiasMatchesCodec)
{
    Rng rng(1);
    for (int trial = 0; trial < 64; ++trial) {
        uint32_t packed = static_cast<uint32_t>(rng.next());
        auto out = compiler::castU4x8ToF16x8(packed);
        for (int i = 0; i < 8; ++i) {
            uint32_t word = out[i / 2];
            uint16_t half = static_cast<uint16_t>(
                (i % 2) ? (word >> 16) : word);
            double expected = double((packed >> (4 * i)) & 0xF);
            EXPECT_EQ(f16BitsToFloat(half), expected)
                << "packed=" << std::hex << packed << " elem " << i;
        }
    }
}

TEST(FastCast, I4SignedMatchesCodec)
{
    Rng rng(2);
    for (int trial = 0; trial < 64; ++trial) {
        uint32_t packed = static_cast<uint32_t>(rng.next());
        auto out = compiler::castI4x8ToF16x8(packed);
        for (int i = 0; i < 8; ++i) {
            uint32_t word = out[i / 2];
            uint16_t half = static_cast<uint16_t>(
                (i % 2) ? (word >> 16) : word);
            double expected = static_cast<double>(
                signExtend((packed >> (4 * i)) & 0xF, 4));
            EXPECT_EQ(f16BitsToFloat(half), expected);
        }
    }
}

TEST(FastCast, U8PermuteMatchesCodec)
{
    Rng rng(3);
    for (int trial = 0; trial < 64; ++trial) {
        uint32_t packed = static_cast<uint32_t>(rng.next());
        auto out = compiler::castU8x4ToF16x4(packed);
        for (int i = 0; i < 4; ++i) {
            uint32_t word = out[i / 2];
            uint16_t half = static_cast<uint16_t>(
                (i % 2) ? (word >> 16) : word);
            double expected = double((packed >> (8 * i)) & 0xFF);
            EXPECT_EQ(f16BitsToFloat(half), expected);
        }
    }
}

TEST(FastCast, U2MatchesCodec)
{
    Rng rng(4);
    for (int trial = 0; trial < 64; ++trial) {
        uint32_t packed = static_cast<uint32_t>(rng.next());
        auto out = compiler::castU2x16ToF16x16(packed);
        for (int i = 0; i < 16; ++i) {
            uint32_t word = out[i / 2];
            uint16_t half = static_cast<uint16_t>(
                (i % 2) ? (word >> 16) : word);
            double expected = double((packed >> (2 * i)) & 0x3);
            EXPECT_EQ(f16BitsToFloat(half), expected);
        }
    }
}

// ---------------------------------------------------------------------
// Memory planner.
// ---------------------------------------------------------------------

TEST(MemoryPlanner, DisjointLifetimesShareSpace)
{
    lang::Script s("planner", 1);
    Var p = s.paramPointer("p", tilus::float16());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, tilus::float16(), {constInt(64)});
    Layout layout = spatial(32) * local(2);
    // t1 used, then dead; t2 allocated afterwards can reuse its space.
    auto t1 = s.allocateShared(tilus::float16(), {64}, "t1");
    auto r1 = s.loadGlobal(g, layout, {constInt(0)});
    s.storeShared(r1, t1, {constInt(0)});
    auto r2 = s.loadShared(t1, layout, {constInt(0)});
    s.storeGlobal(r2, g, {constInt(0)});
    auto t2 = s.allocateShared(tilus::float16(), {64}, "t2");
    auto r3 = s.loadGlobal(g, layout, {constInt(0)});
    s.storeShared(r3, t2, {constInt(0)});
    ir::Program prog = s.finish();

    compiler::MemoryPlan plan = compiler::planSharedMemory(prog);
    EXPECT_EQ(plan.offsets.at(t1->id), plan.offsets.at(t2->id));
    EXPECT_EQ(plan.total_bytes, 128); // one 128B-aligned slot
}

TEST(MemoryPlanner, OverlappingLifetimesAreDisjoint)
{
    lang::Script s("planner2", 1);
    Var p = s.paramPointer("p", tilus::float16());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, tilus::float16(), {constInt(64)});
    Layout layout = spatial(32) * local(2);
    auto t1 = s.allocateShared(tilus::float16(), {64}, "t1");
    auto t2 = s.allocateShared(tilus::float16(), {64}, "t2");
    auto r1 = s.loadGlobal(g, layout, {constInt(0)});
    s.storeShared(r1, t1, {constInt(0)});
    s.storeShared(r1, t2, {constInt(0)});
    auto r2 = s.loadShared(t1, layout, {constInt(0)});
    s.storeGlobal(r2, g, {constInt(0)});
    ir::Program prog = s.finish();

    compiler::MemoryPlan plan = compiler::planSharedMemory(prog);
    EXPECT_NE(plan.offsets.at(t1->id), plan.offsets.at(t2->id));
    EXPECT_GE(plan.total_bytes, 256);
}

TEST(MemoryPlanner, LoopUsageExtendsLiveness)
{
    // Both buffers are used inside the loop: they must not alias even
    // though their textual first/last uses interleave.
    lang::Script s("planner3", 1);
    Var p = s.paramPointer("p", tilus::float16());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, tilus::float16(), {constInt(64)});
    Layout layout = spatial(32) * local(2);
    auto t1 = s.allocateShared(tilus::float16(), {64}, "t1");
    auto t2 = s.allocateShared(tilus::float16(), {64}, "t2");
    s.forRange(constInt(4), [&](Var) {
        auto r1 = s.loadShared(t1, layout, {constInt(0)});
        s.storeShared(r1, t2, {constInt(0)});
        auto r2 = s.loadShared(t2, layout, {constInt(0)});
        s.storeShared(r2, t1, {constInt(0)});
        (void)g;
    });
    ir::Program prog = s.finish();
    compiler::MemoryPlan plan = compiler::planSharedMemory(prog);
    EXPECT_NE(plan.offsets.at(t1->id), plan.offsets.at(t2->id));
}

// ---------------------------------------------------------------------
// Lowering and instruction selection.
// ---------------------------------------------------------------------

TEST(Lowering, MatmulKernelSelectsExpectedInstructions)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = tilus::uint4();
    cfg.n = 128;
    cfg.k = 128;
    cfg.bm = 16;
    cfg.bn = 64;
    cfg.bk = 32;
    cfg.warp_n = 2;
    cfg.stages = 2;
    auto bundle = kernels::buildMatmul(cfg);
    lir::Kernel kernel = compiler::compile(bundle.main_program);
    std::string text = lir::printKernel(kernel);
    EXPECT_NE(text.find("cp.async.cg.b128"), std::string::npos) << text;
    EXPECT_NE(text.find("cp.async.commit_group"), std::string::npos);
    EXPECT_NE(text.find("cp.async.wait_group 0"), std::string::npos);
    EXPECT_NE(text.find("mma.m16n8k16"), std::string::npos);
    EXPECT_NE(text.find("vcvt"), std::string::npos);
    EXPECT_NE(text.find("bar.sync"), std::string::npos);
    // The transformed path loads weights with wide shared-memory reads.
    EXPECT_NE(text.find("lds.b128"), std::string::npos) << text;
}

TEST(Lowering, VectorizationTogglesWidth)
{
    auto bundle = kernels::buildVectorAdd(1, 4);
    compiler::CompileOptions wide;
    lir::Kernel kernel = compiler::compile(bundle.program, wide);
    std::string text = lir::printKernel(kernel);
    EXPECT_NE(text.find("ldg.b128"), std::string::npos) << text;

    compiler::CompileOptions narrow;
    narrow.enable_vectorize = false;
    lir::Kernel scalar_kernel = compiler::compile(bundle.program, narrow);
    std::string scalar_text = lir::printKernel(scalar_kernel);
    EXPECT_EQ(scalar_text.find("ldg.b128"), std::string::npos)
        << scalar_text;
    EXPECT_NE(scalar_text.find("ldg.b32"), std::string::npos);
}

TEST(Lowering, SmallBatchUsesSimtDot)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = tilus::uint4();
    cfg.n = 128;
    cfg.k = 64;
    cfg.bm = 2;
    cfg.bn = 128;
    cfg.bk = 32;
    cfg.simt_warps = 2;
    cfg.stages = 2;
    cfg.use_tensor_cores = false;
    auto bundle = kernels::buildMatmul(cfg);
    lir::Kernel kernel = compiler::compile(bundle.main_program);
    std::string text = lir::printKernel(kernel);
    EXPECT_NE(text.find("simt.dot"), std::string::npos) << text;
    EXPECT_EQ(text.find("mma."), std::string::npos);
}

TEST(Lowering, WorkspacePlanning)
{
    lang::Script s("ws", 1);
    s.paramPointer("p", tilus::float32());
    s.setGrid({constInt(1)});
    auto g1 = s.allocateGlobal(tilus::float32(), {constInt(100)});
    auto g2 = s.allocateGlobal(tilus::int32(), {constInt(50)});
    Layout layout = spatial(32) * local(4);
    auto r = s.loadGlobal(g1, layout, {constInt(0)});
    s.storeGlobal(r, g1, {constInt(0)});
    (void)g2;
    ir::Program prog = s.finish();
    lir::Kernel kernel = compiler::compile(prog);
    EXPECT_GE(kernel.workspace_bytes, 400 + 200);
}

TEST(Lowering, ElementwiseEndToEnd)
{
    auto bundle = kernels::buildVectorAdd(2, 4);
    runtime::Runtime rt(sim::l40s());
    const int64_t n = 1000; // not a multiple of the tile: predicated tail
    PackedBuffer x(tilus::float32(), n), y(tilus::float32(), n);
    Rng rng(9);
    for (int64_t i = 0; i < n; ++i) {
        x.setRaw(i, encodeValue(tilus::float32(), rng.nextDouble(-5, 5)));
        y.setRaw(i, encodeValue(tilus::float32(), rng.nextDouble(-5, 5)));
    }
    auto dx = rt.alloc(tilus::float32(), {n});
    auto dy = rt.alloc(tilus::float32(), {n});
    auto dz = rt.alloc(tilus::float32(), {n});
    rt.upload(dx, x);
    rt.upload(dy, y);
    const lir::Kernel &kernel = rt.getOrCompile(bundle.program, {});
    rt.launch(kernel, {{bundle.n, n},
                       {bundle.x_ptr, int64_t(dx.ptr)},
                       {bundle.y_ptr, int64_t(dy.ptr)},
                       {bundle.z_ptr, int64_t(dz.ptr)}});
    PackedBuffer z = rt.download(dz);
    for (int64_t i = 0; i < n; ++i) {
        double sum = decodeValue(tilus::float32(), x.getRaw(i)) +
                     decodeValue(tilus::float32(), y.getRaw(i));
        double want = decodeValue(tilus::float32(),
                                  encodeValue(tilus::float32(), sum));
        ASSERT_EQ(decodeValue(tilus::float32(), z.getRaw(i)), want)
            << "i=" << i;
    }
}

TEST(Lowering, AxpyEndToEnd)
{
    auto bundle = kernels::buildAxpy(1, 2);
    runtime::Runtime rt(sim::l40s());
    const int64_t n = 128;
    PackedBuffer x(tilus::float32(), n), y(tilus::float32(), n);
    for (int64_t i = 0; i < n; ++i) {
        x.setRaw(i, encodeValue(tilus::float32(), double(i)));
        y.setRaw(i, encodeValue(tilus::float32(), 1.0));
    }
    auto dx = rt.alloc(tilus::float32(), {n});
    auto dy = rt.alloc(tilus::float32(), {n});
    auto dz = rt.alloc(tilus::float32(), {n});
    rt.upload(dx, x);
    rt.upload(dy, y);
    const lir::Kernel &kernel = rt.getOrCompile(bundle.program, {});
    // alpha is params[1] by construction.
    rt.launch(kernel, {{bundle.n, n},
                       {bundle.program.params[1], 3},
                       {bundle.x_ptr, int64_t(dx.ptr)},
                       {bundle.y_ptr, int64_t(dy.ptr)},
                       {bundle.z_ptr, int64_t(dz.ptr)}});
    PackedBuffer z = rt.download(dz);
    for (int64_t i = 0; i < n; ++i)
        ASSERT_EQ(decodeValue(tilus::float32(), z.getRaw(i)),
                  3.0 * i + 1.0);
}

TEST(Lowering, ArchGateRaisesIllegalInstruction)
{
    auto bundle = kernels::buildVectorAdd(1, 4);
    compiler::CompileOptions opts;
    opts.sm_arch = 95; // beyond every simulated GPU except none
    runtime::Runtime rt(sim::a100());
    const lir::Kernel &kernel = rt.getOrCompile(bundle.program, opts);
    EXPECT_THROW(rt.launch(kernel, {{bundle.n, 128},
                                    {bundle.x_ptr, 0},
                                    {bundle.y_ptr, 0},
                                    {bundle.z_ptr, 0}}),
                 SimError);
}

TEST(Lowering, DeviceOomIsRaised)
{
    runtime::Runtime rt(sim::l40s());
    EXPECT_THROW(rt.alloc(tilus::float16(),
                          {1LL << 20, 1LL << 16}), // 128 GiB
                 OutOfMemoryError);
}

// ---------------------------------------------------------------------
// Lowering rejections: layouts the verifier accepts but no schedule fits.
// ---------------------------------------------------------------------

/** The CompileError text raised by compiling @p s ("" if none). */
std::string
compileErrorOf(lang::Script &s)
{
    try {
        s.compile();
    } catch (const CompileError &e) {
        return e.what();
    }
    return "";
}

TEST(LoweringRejects, BroadcastOperandNotHeld)
{
    // Thread t holds row t of a; b's two columns live in threads 0-15
    // and 16-31, so thread 0 lacks b[0, 1].
    lang::Script s("bcast_not_held", 1);
    s.setGrid({constInt(1)});
    auto a = s.allocateRegister(tilus::float32(),
                                spatial(32, 1) * local(1, 2), 1.0, "a");
    auto b = s.allocateRegister(
        tilus::float32(), spatial(1, 2) * replicaSpatial(2, 16), 2.0, "b");
    s.mul(a, b, "c");
    EXPECT_EQ(compileErrorOf(s),
              "Binary broadcast: thread 0 does not hold the required "
              "element of 'b'");
}

TEST(LoweringRejects, BroadcastSlotMapNotThreadUniform)
{
    // Every thread holds all of b, but thread t reads row t: slot 0 in
    // thread 0, slot 1 in thread 1.
    lang::Script s("bcast_not_uniform", 1);
    s.setGrid({constInt(1)});
    auto a = s.allocateRegister(tilus::float32(),
                                spatial(32, 1) * local(1, 2), 1.0, "a");
    auto b = s.allocateRegister(
        tilus::float32(), replicaSpatial(2, 32) * local(32, 1), 2.0, "b");
    s.mul(a, b, "c");
    EXPECT_EQ(compileErrorOf(s),
              "Binary broadcast: slot mapping is not thread-uniform for "
              "'b'");
}

TEST(LoweringRejects, DotNotThreadUniform)
{
    // f32 operands rule out mma; every thread holds all operands, but
    // thread t's accumulator row t reads a at slots 2t and 2t+1.
    lang::Script s("dot_not_uniform", 1);
    s.setGrid({constInt(1)});
    auto a = s.allocateRegister(
        tilus::float32(), replicaSpatial(2, 32) * local(32, 2), 1.0, "a");
    auto b = s.allocateRegister(
        tilus::float32(), replicaSpatial(2, 32) * local(2, 1), 1.0, "b");
    auto c = s.allocateRegister(tilus::float32(), spatial(32, 1), 0.0, "c");
    s.dot(a, b, c);
    EXPECT_EQ(compileErrorOf(s),
              "Dot: operand layouts fit neither the tensor-core atoms nor "
              "a thread-local SIMT schedule (a=replica(32).local(32, 2), "
              "b=replica(32).local(2, 1))");
}

} // namespace
} // namespace tilus
