/**
 * @file
 * Golden lowering output of the matmul template. Each case compiles one
 * buildMatmul configuration at O0 and O2 and pins a 64-bit FNV-1a hash of
 * its listing: lir::printKernel followed by the per-op payloads the
 * printer abbreviates (every SIMT dot's (c, a, b) slot program and every
 * broadcast's b slot map). The cases cover the three lowering sites that
 * query which thread holds which element: the SIMT dot, the broadcast
 * binary (grouped scales, with and without the zero-point addScalar) and
 * the tensor-core MmaTile fragment check, plus dense f16.
 *
 * A hash mismatch means lowering output changed; the failure message
 * carries the full listing so the diff can be reviewed. Only re-pin a
 * hash for a deliberate change to the emitted LIR.
 */
#include <cstdint>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>

#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "kernels/matmul.h"
#include "lir/lir.h"

namespace tilus {
namespace {

uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

void
dumpPayloads(const lir::LBody &body, std::ostringstream &oss)
{
    for (const lir::LNode &node : body) {
        std::visit(
            [&](const auto &n) {
                using T = std::decay_t<decltype(n)>;
                if constexpr (std::is_same_v<T, lir::LOp>) {
                    if (const auto *dot = std::get_if<lir::SimtDot>(&n)) {
                        oss << "macs";
                        for (const auto &mac : dot->macs)
                            oss << " " << mac[0] << ":" << mac[1] << ":"
                                << mac[2];
                        oss << "\n";
                    } else if (const auto *bin =
                                   std::get_if<lir::EltwiseBinary>(&n)) {
                        oss << "slot_map";
                        for (int32_t s : bin->b_slot_map)
                            oss << " " << s;
                        oss << "\n";
                    }
                } else if constexpr (std::is_same_v<T, lir::LFor> ||
                                     std::is_same_v<T, lir::LWhile>) {
                    dumpPayloads(*n.body, oss);
                } else if constexpr (std::is_same_v<T, lir::LIf>) {
                    dumpPayloads(*n.then_body, oss);
                    if (n.else_body)
                        dumpPayloads(*n.else_body, oss);
                }
            },
            node.node);
    }
}

std::string
listing(const kernels::MatmulConfig &cfg, compiler::OptLevel level)
{
    compiler::CompileOptions options;
    options.opt_level = level;
    lir::Kernel kernel = kernels::buildMatmul(cfg).compileMain(options);
    std::ostringstream oss;
    oss << lir::printKernel(kernel);
    dumpPayloads(kernel.body, oss);
    return oss.str();
}

kernels::MatmulConfig
simtConfig(DataType wdtype, int64_t bm, int64_t group_size)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = wdtype;
    cfg.n = 128;
    cfg.k = 128;
    cfg.bm = bm;
    cfg.bn = 128;
    cfg.bk = 32;
    cfg.simt_warps = 2;
    cfg.stages = 2;
    cfg.use_tensor_cores = false;
    cfg.group_size = group_size;
    return cfg;
}

kernels::MatmulConfig
tensorCoreConfig(DataType wdtype, int64_t group_size)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = wdtype;
    cfg.n = 128;
    cfg.k = 128;
    cfg.bm = 16;
    cfg.bn = 64;
    cfg.bk = 32;
    cfg.warp_m = 1;
    cfg.warp_n = 2;
    cfg.stages = 2;
    cfg.use_tensor_cores = true;
    cfg.group_size = group_size;
    return cfg;
}

struct GoldenCase
{
    const char *name;
    kernels::MatmulConfig cfg;
    uint64_t o0_hash;
    uint64_t o2_hash;
};

void
expectGolden(const GoldenCase &c)
{
    ASSERT_TRUE(c.cfg.valid()) << c.name;
    const std::string o0 = listing(c.cfg, compiler::OptLevel::O0);
    const std::string o2 = listing(c.cfg, compiler::OptLevel::O2);
    EXPECT_EQ(fnv1a(o0), c.o0_hash)
        << c.name << " O0 listing changed:\n" << o0;
    EXPECT_EQ(fnv1a(o2), c.o2_hash)
        << c.name << " O2 listing changed:\n" << o2;
}

/** SIMT dot (m=1) with the u4 zero-point addScalar and a grouped-scale
    broadcast mul. */
TEST(LoweringGolden, SimtU4GroupedM1)
{
    expectGolden({"simt_u4_g64_m1", simtConfig(tilus::uint4(), 1, 64),
                  0x2ba8acaf394ace13ull,
                  0xbe8395db11c0ab05ull});
}

/** SIMT dot over signed int4 (no zero point) with a grouped-scale
    broadcast mul, m=4. */
TEST(LoweringGolden, SimtI4GroupedM4)
{
    expectGolden({"simt_i4_g32_m4", simtConfig(tilus::int4(), 4, 32),
                  0x1ebd98ecdb439960ull,
                  0xb2ed1d97e0b1cffbull});
}

/** Tensor-core MmaTile path with the u3 zero-point addScalar and a
    replicated scale broadcast. */
TEST(LoweringGolden, TensorCoreU3Grouped)
{
    expectGolden({"tc_u3_g32", tensorCoreConfig(tilus::uint3(), 32),
                  0x8bd28493e70f6671ull,
                  0x953ae8dfec363caaull});
}

/** Tensor-core MmaTile path, m=16, ungrouped u4. */
TEST(LoweringGolden, TensorCoreU4)
{
    expectGolden({"tc_u4", tensorCoreConfig(tilus::uint4(), 0),
                  0x852e972c88156089ull,
                  0x8d3eec3944d832a4ull});
}

/** Dense f16 weights on the tensor-core path. */
TEST(LoweringGolden, TensorCoreDenseF16)
{
    expectGolden({"tc_f16", tensorCoreConfig(tilus::float16(), 0),
                  0x3dd332c6490ed795ull,
                  0x5ab2c11118ef191bull});
}

} // namespace
} // namespace tilus
