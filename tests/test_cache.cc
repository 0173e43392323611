/**
 * @file
 * The content-addressed kernel cache and persistent autotune database
 * (src/cache/): fingerprint stability across rebuilds, exhaustive
 * byte-identical LIR serialization round trips over the kernel suite,
 * whole-DRAM oracle equivalence of deserialized kernels, the on-disk
 * tier's corruption/version robustness (always a miss, never a crash),
 * Runtime integration across simulated process restarts, tune-database
 * determinism, and concurrent-tuner thread safety.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

#include "autotune/tuner.h"
#include "cache/blob_store.h"
#include "cache/codec.h"
#include "cache/compile_pool.h"
#include "obs/metrics.h"
#include "support/fault.h"
#include "cache/fingerprint.h"
#include "cache/kernel_cache.h"
#include "cache/serialize.h"
#include "cache/tune_db.h"
#include "kernels/elementwise.h"
#include "kernels/matmul.h"
#include "opt/oracle.h"
#include "sim/gpu_spec.h"
#include "test_helpers.h"

namespace tilus {
namespace {

using kernels::MatmulConfig;

/** A unique directory under /tmp, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "tilus_cache_XXXXXX")
                .string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        EXPECT_NE(mkdtemp(buf.data()), nullptr);
        path = buf.data();
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

MatmulConfig
tensorCoreConfig(DataType wdtype)
{
    MatmulConfig cfg;
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
    return cfg;
}

MatmulConfig
simtConfig(DataType wdtype)
{
    MatmulConfig cfg;
    cfg.wdtype = wdtype;
    cfg.n = 128;
    cfg.k = 96;
    cfg.bm = 4;
    cfg.bn = 128;
    cfg.bk = 32;
    cfg.simt_warps = 2;
    cfg.stages = 3;
    cfg.use_tensor_cores = false;
    return cfg;
}

/** The round-trip suite: matmul main + transform kernels across both
    execution paths, grouped scales, the Triton variant, dense f16, and
    the elementwise kernels — every LIR op the compiler emits. */
std::vector<std::pair<std::string, ir::Program>>
kernelSuite()
{
    std::vector<std::pair<std::string, ir::Program>> suite;
    auto add = [&](const std::string &label, const ir::Program &p) {
        suite.emplace_back(label, p);
    };
    {
        MatmulConfig cfg = tensorCoreConfig(uint4());
        cfg.group_size = 32;
        kernels::MatmulBundle b = kernels::buildMatmul(cfg);
        add("tc_u4_grouped", b.main_program);
        EXPECT_TRUE(b.transform_program.has_value());
        if (b.transform_program)
            add("tc_u4_transform", *b.transform_program);
    }
    {
        kernels::MatmulBundle b =
            kernels::buildMatmul(tensorCoreConfig(float6e3m2()));
        add("tc_f6", b.main_program);
    }
    {
        MatmulConfig cfg = tensorCoreConfig(uint4());
        cfg.convert_via_smem = true;
        add("tc_u4_via_smem",
            kernels::buildMatmul(cfg).main_program);
    }
    {
        MatmulConfig cfg = tensorCoreConfig(uint3());
        cfg.transform_weights = false; // bitwise fallback path
        add("tc_u3_untransformed",
            kernels::buildMatmul(cfg).main_program);
    }
    {
        kernels::MatmulBundle b =
            kernels::buildMatmul(tensorCoreConfig(float16()));
        add("tc_f16_dense", b.main_program);
    }
    {
        kernels::MatmulBundle b =
            kernels::buildMatmul(simtConfig(uint4()));
        add("simt_u4", b.main_program);
    }
    add("vector_add", kernels::buildVectorAdd().program);
    add("axpy", kernels::buildAxpy().program);
    return suite;
}

// --------------------------------------------------------- fingerprints

TEST(Fingerprint, StableAcrossRebuilds)
{
    // Two builds of one configuration carry entirely different
    // process-global variable/tensor ids; the canonicalized fingerprint
    // must not see them.
    MatmulConfig cfg = tensorCoreConfig(uint4());
    ir::Program a = kernels::buildMatmul(cfg).main_program;
    ir::Program b = kernels::buildMatmul(cfg).main_program;
    EXPECT_EQ(cache::fingerprintProgram(a, {}),
              cache::fingerprintProgram(b, {}));
}

TEST(Fingerprint, OptLevelTwinsNeverAlias)
{
    // The oracle in opt/oracle.h depends on O0 and O2 compilations of
    // one program staying distinct kernels.
    ir::Program p =
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program;
    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    compiler::CompileOptions o2;
    EXPECT_NE(cache::fingerprintProgram(p, o0),
              cache::fingerprintProgram(p, o2));

    TempDir dir;
    cache::KernelCache disk(dir.path);
    runtime::Runtime rt(sim::l40s());
    rt.setDiskCache(&disk);
    const lir::Kernel &k0 = rt.getOrCompile(p, o0);
    const lir::Kernel &k2 = rt.getOrCompile(p, o2);
    EXPECT_NE(&k0, &k2);
    EXPECT_EQ(rt.compileCount(), 2);
}

TEST(Fingerprint, DistinguishesConfigsAndOptions)
{
    ir::Program base =
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program;
    MatmulConfig other_cfg = tensorCoreConfig(uint4());
    other_cfg.bk = 64;
    ir::Program other =
        kernels::buildMatmul(other_cfg).main_program;
    EXPECT_NE(cache::fingerprintProgram(base, {}),
              cache::fingerprintProgram(other, {}));

    compiler::CompileOptions no_vec;
    no_vec.enable_vectorize = false;
    EXPECT_NE(cache::fingerprintProgram(base, {}),
              cache::fingerprintProgram(base, no_vec));
}

// --------------------------------------------------------- serialization

TEST(Serialize, RoundTripIsByteIdenticalAcrossSuite)
{
    for (const auto &[label, program] : kernelSuite()) {
        for (compiler::OptLevel level :
             {compiler::OptLevel::O0, compiler::OptLevel::O2}) {
            compiler::CompileOptions opts;
            opts.opt_level = level;
            lir::Kernel kernel = compiler::compile(program, opts);
            std::string bytes = cache::serializeKernel(kernel);
            lir::Kernel loaded = cache::deserializeKernel(bytes);
            // Byte-identical re-serialization and identical listings.
            EXPECT_EQ(cache::serializeKernel(loaded), bytes)
                << label << " at O" << static_cast<int>(level);
            EXPECT_EQ(lir::printKernel(loaded), lir::printKernel(kernel))
                << label << " at O" << static_cast<int>(level);
        }
    }
}

TEST(Serialize, DeserializedKernelPassesWholeDramOracle)
{
    // The acceptance bar: a kernel materialized from cache bytes is
    // observably indistinguishable from the freshly compiled one over
    // the entire simulated DRAM.
    MatmulConfig cfg = tensorCoreConfig(uint4());
    cfg.group_size = 32;
    for (const ir::Program &program :
         {kernels::buildMatmul(cfg).main_program,
          kernels::buildMatmul(simtConfig(uint4())).main_program}) {
        lir::Kernel fresh = compiler::compile(program, {});
        lir::Kernel loaded =
            cache::deserializeKernel(cache::serializeKernel(fresh));
        opt::OracleConfig oracle;
        oracle.scalars = {{"m", 8}};
        opt::OracleReport report =
            opt::diffKernels(fresh, loaded, oracle);
        EXPECT_TRUE(report.identical) << report.detail;
    }
}

TEST(Serialize, SpecialVariablesRebindToSingletons)
{
    // tid must stay the process singleton after a round trip — the
    // micro-op decoder classifies addresses by its identity.
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    lir::Kernel loaded =
        cache::deserializeKernel(cache::serializeKernel(kernel));
    opt::OracleConfig oracle;
    oracle.scalars = {{"m", 8}};
    sim::Device device(oracle.device_bytes);
    sim::SimStats stats =
        opt::runSeeded(loaded, oracle, device, sim::Engine::kMicroOps);
    EXPECT_GT(stats.mma_ops, 0);
}

TEST(Serialize, CorruptPayloadThrowsFormatError)
{
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    std::string bytes = cache::serializeKernel(kernel);
    // Truncation at every prefix must throw, never crash.
    for (size_t cut : {size_t(0), size_t(1), bytes.size() / 2,
                       bytes.size() - 1}) {
        EXPECT_THROW(cache::deserializeKernel(bytes.substr(0, cut)),
                     cache::CacheFormatError)
            << "cut=" << cut;
    }
    // Trailing garbage is rejected too.
    EXPECT_THROW(cache::deserializeKernel(bytes + "x"),
                 cache::CacheFormatError);
}

// --------------------------------------------------------- disk tier

TEST(KernelCache, StoreLoadAcrossInstances)
{
    TempDir dir;
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 0x1234;
    fp.hi = 0x5678;
    {
        cache::KernelCache cache(dir.path);
        cache.store(fp, kernel);
        EXPECT_EQ(cache.stats().stores, 1);
    }
    cache::KernelCache reopened(dir.path); // simulated process restart
    std::unique_ptr<lir::Kernel> loaded = reopened.load(fp);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(cache::serializeKernel(*loaded),
              cache::serializeKernel(kernel));
    EXPECT_EQ(reopened.stats().disk_hits, 1);
    EXPECT_EQ(reopened.load(cache::Fingerprint{}), nullptr); // miss
    EXPECT_EQ(reopened.stats().disk_misses, 1);
}

TEST(KernelCache, VersionBumpForcesMiss)
{
    TempDir dir;
    cache::KernelCache cache(dir.path);
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 1;
    cache.store(fp, kernel, cache::kCacheFormatVersion);
    EXPECT_NE(cache.load(fp, cache::kCacheFormatVersion), nullptr);
    // A format bump invalidates every existing artifact.
    EXPECT_EQ(cache.load(fp, cache::kCacheFormatVersion + 1), nullptr);
    EXPECT_EQ(cache.stats().disk_errors, 1);
}

TEST(KernelCache, TruncatedAndCorruptEntriesDegradeToMiss)
{
    TempDir dir;
    cache::KernelCache cache(dir.path);
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 2;
    cache.store(fp, kernel);
    const std::string path = cache.entryPath(fp);
    const std::string blob = readFile(path);

    // Truncate at several points, including inside the header.
    for (size_t cut : {size_t(3), size_t(20), blob.size() / 2,
                       blob.size() - 1}) {
        writeFile(path, blob.substr(0, cut));
        EXPECT_EQ(cache.load(fp), nullptr) << "cut=" << cut;
    }
    // Flip a payload byte: the content hash must catch it.
    std::string corrupt = blob;
    corrupt[corrupt.size() - 10] ^= 0x40;
    writeFile(path, corrupt);
    EXPECT_EQ(cache.load(fp), nullptr);
    EXPECT_GE(cache.stats().disk_errors, 5);

    // Restore: it loads again (the store itself was never damaged).
    writeFile(path, blob);
    EXPECT_NE(cache.load(fp), nullptr);
}

TEST(KernelCache, DisabledCacheMissesAndSkipsWrites)
{
    TempDir dir;
    cache::KernelCache cache(dir.path, /*enabled=*/false);
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 3;
    cache.store(fp, kernel);
    EXPECT_EQ(cache.load(fp), nullptr);
    EXPECT_EQ(cache.stats().stores, 0);
    EXPECT_FALSE(std::filesystem::exists(cache.entryPath(fp)));
}

// ----------------------------------------------------------- blob store

/** bytes(range(n)), the known-answer inputs. */
std::string
iota(int n)
{
    std::string s;
    for (int i = 0; i < n; ++i)
        s.push_back(static_cast<char>(i));
    return s;
}

/** Blob written with the fingerprint Hasher's digest under @p magic:
    the header every store used before the word-at-a-time hash. */
std::string
oldFormatBlob(uint32_t magic, uint32_t version, const std::string &payload)
{
    cache::Hasher h;
    h.bytes(payload.data(), payload.size());
    std::string blob;
    cache::putU32(blob, magic);
    cache::putU32(blob, version);
    cache::putU64(blob, payload.size());
    cache::putU64(blob, h.digest().lo);
    return blob + payload;
}

TEST(BlobStore, PayloadHashKnownAnswers)
{
    // tools/check_fuzz.py re-implements payloadHash and self-checks
    // against these same vectors, so the two cannot drift apart.
    EXPECT_EQ(cache::payloadHash(iota(0)), 0xc1620d0a2dcaa9d2ull);
    EXPECT_EQ(cache::payloadHash(iota(256)), 0x1136b26a870ad6deull);
    EXPECT_EQ(cache::payloadHash(iota(33)), 0x521a3d6cac97fa0bull);
    EXPECT_EQ(cache::payloadHash(iota(63)), 0xf1066fb80b19c9bdull);
}

TEST(BlobStore, MagicSpellsTagInFirstBytes)
{
    TempDir dir;
    const std::string path = dir.path + "/blob";
    ASSERT_TRUE(cache::writeBlobAtomic(path, cache::kKernelMagic,
                                       cache::kCacheFormatVersion, "x"));
    EXPECT_EQ(readFile(path).substr(0, 4), "TLKC");
    EXPECT_EQ(cache::blobMagic("TLKC"), 0x434b4c54u);
}

/** Count the single-bit flips at (byte, bit) pairs of @p path that
    readBlobFile still accepts; the file is restored after each. */
int
acceptedFlips(const std::string &path,
              const std::vector<std::pair<size_t, int>> &flips)
{
    const std::string blob = readFile(path);
    const int fd = ::open(path.c_str(), O_WRONLY);
    EXPECT_GE(fd, 0);
    int accepted = 0;
    for (const auto &[offset, bit] : flips) {
        const char flipped = static_cast<char>(blob[offset] ^ (1 << bit));
        EXPECT_EQ(::pwrite(fd, &flipped, 1, offset), 1);
        std::string payload, why;
        if (cache::readBlobFile(path, cache::kKernelMagic,
                                cache::kCacheFormatVersion, &payload,
                                &why) != cache::BlobRead::kCorrupt) {
            ADD_FAILURE() << "flip of bit " << bit << " at byte "
                          << offset << " accepted";
            ++accepted;
        }
        EXPECT_EQ(::pwrite(fd, &blob[offset], 1, offset), 1);
    }
    ::close(fd);
    return accepted;
}

TEST(BlobStore, EverySingleBitFlipOfASmallBlobIsRejected)
{
    TempDir dir;
    const std::string path = dir.path + "/small.lirk";
    const lir::Kernel kernel =
        compiler::compile(kernels::buildVectorAdd().program, {});
    ASSERT_TRUE(cache::writeBlobAtomic(path, cache::kKernelMagic,
                                       cache::kCacheFormatVersion,
                                       cache::serializeKernel(kernel)));
    const size_t size = readFile(path).size();
    ASSERT_LE(size, 4096u);
    std::vector<std::pair<size_t, int>> flips;
    for (size_t offset = 0; offset < size; ++offset) // header included
        for (int bit = 0; bit < 8; ++bit)
            flips.emplace_back(offset, bit);
    EXPECT_EQ(acceptedFlips(path, flips), 0);
    std::string payload, why;
    EXPECT_EQ(cache::readBlobFile(path, cache::kKernelMagic,
                                  cache::kCacheFormatVersion, &payload,
                                  &why),
              cache::BlobRead::kHit); // restored intact
}

TEST(BlobStore, LargeBlobFlipsAtEveryStripeOffsetAndTailAreRejected)
{
    TempDir dir;
    const std::string path = dir.path + "/large.lirk";
    const std::string payload = cache::serializeKernel(compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {}));
    ASSERT_TRUE(cache::writeBlobAtomic(path, cache::kKernelMagic,
                                       cache::kCacheFormatVersion,
                                       payload));
    const size_t header = readFile(path).size() - payload.size();
    const size_t tail = payload.size() % 32; // bytes after the stripes
    ASSERT_GT(payload.size(), 4096u);
    ASSERT_GT(tail, 0u);
    std::vector<std::pair<size_t, int>> flips;
    // One flip at each offset mod 32, in a stripe mid-payload.
    const size_t stripe = header + (payload.size() / 64) * 32;
    for (size_t r = 0; r < 32; ++r)
        flips.emplace_back(stripe + r, static_cast<int>(r % 8));
    // Every bit of the sub-word tail (8-byte words, 4-byte word, bytes).
    for (size_t offset = header + payload.size() - tail;
         offset < header + payload.size(); ++offset)
        for (int bit = 0; bit < 8; ++bit)
            flips.emplace_back(offset, bit);
    EXPECT_EQ(acceptedFlips(path, flips), 0);
}

TEST(BlobStore, DirectoryAndShortFilesAreCorruptNotCrashes)
{
    TempDir dir;
    std::string payload, why;
    auto read = [&](const std::string &path) {
        why.clear();
        return cache::readBlobFile(path, cache::kKernelMagic,
                                   cache::kCacheFormatVersion, &payload,
                                   &why);
    };
    EXPECT_EQ(read(dir.path + "/absent"), cache::BlobRead::kMissing);
    EXPECT_EQ(read(dir.path), cache::BlobRead::kCorrupt); // a directory
    EXPECT_FALSE(why.empty());

    const std::string path = dir.path + "/entry";
    ASSERT_TRUE(cache::writeBlobAtomic(path, cache::kKernelMagic,
                                       cache::kCacheFormatVersion,
                                       iota(200)));
    const std::string blob = readFile(path);
    writeFile(path, blob.substr(0, blob.size() - 1)); // shorter than
    EXPECT_EQ(read(path), cache::BlobRead::kCorrupt); // its header says
    EXPECT_EQ(why, "truncated payload");
    writeFile(path, blob.substr(0, 10));
    EXPECT_EQ(read(path), cache::BlobRead::kCorrupt);
    EXPECT_EQ(why, "truncated header");
    writeFile(path, "");
    EXPECT_EQ(read(path), cache::BlobRead::kCorrupt);
    EXPECT_EQ(why, "truncated header");
    writeFile(path, blob);
    EXPECT_EQ(read(path), cache::BlobRead::kHit);
    EXPECT_EQ(payload, iota(200));
}

TEST(BlobStore, ByteReaderOverrunClearsOkAndReturnsZeros)
{
    std::string bytes;
    cache::putU32(bytes, 0x01020304u);
    EXPECT_EQ(bytes, std::string("\x04\x03\x02\x01", 4)); // little-endian
    cache::putU8(bytes, 0xee);
    {
        cache::ByteReader r(bytes);
        EXPECT_EQ(r.u32(), 0x01020304u);
        EXPECT_EQ(r.u64(), 0u); // 1 byte left: overrun
        EXPECT_FALSE(r.ok());
        EXPECT_FALSE(r.atEnd());
    }
    {
        cache::ByteReader r(bytes.substr(0, 3));
        EXPECT_EQ(r.u32(), 0u);
        EXPECT_EQ(r.f64(), 0.0);
        EXPECT_FALSE(r.ok());
    }
    {
        cache::ByteReader r(bytes);
        EXPECT_EQ(r.u32(), 0x01020304u);
        EXPECT_EQ(r.u8(), 0xee);
        EXPECT_EQ(r.u8(), 0); // past the end
        EXPECT_FALSE(r.ok());
    }
}

TEST(KernelCache, OldHashEntryIsRecompiledAndOverwritten)
{
    TempDir dir;
    const ir::Program program =
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program;
    const cache::Fingerprint fp = cache::fingerprintProgram(program, {});
    const std::string payload =
        cache::serializeKernel(compiler::compile(program, {}));

    cache::KernelCache disk(dir.path);
    const std::string path = disk.entryPath(fp);
    writeFile(path, oldFormatBlob(0x544c4b43 /* the old "TLKC" */,
                                  cache::kCacheFormatVersion, payload));

    runtime::Runtime rt(sim::l40s());
    rt.setDiskCache(&disk);
    rt.getOrCompile(program, {});
    EXPECT_EQ(rt.compileCount(), 1); // the old entry is a miss
    EXPECT_EQ(rt.diskLoadCount(), 0);
    EXPECT_EQ(disk.stats().disk_errors, 1);
    EXPECT_EQ(disk.stats().stores, 1);

    // The recompiled kernel replaced it with a valid entry.
    EXPECT_EQ(readFile(path).substr(0, 4), "TLKC");
    std::string reread, why;
    EXPECT_EQ(cache::readBlobFile(path, cache::kKernelMagic,
                                  cache::kCacheFormatVersion, &reread,
                                  &why),
              cache::BlobRead::kHit);
    EXPECT_EQ(reread, payload);
    cache::KernelCache restarted(dir.path);
    EXPECT_NE(restarted.load(fp), nullptr);
    EXPECT_EQ(restarted.stats().disk_errors, 0);
}

// --------------------------------------------------- runtime integration

TEST(RuntimeCache, DiskTierSurvivesProcessRestart)
{
    TempDir dir;
    MatmulConfig cfg = tensorCoreConfig(uint4());
    std::string first_listing;
    {
        cache::KernelCache disk(dir.path);
        runtime::Runtime rt(sim::l40s());
        rt.setDiskCache(&disk);
        const lir::Kernel &k = rt.getOrCompile(
            kernels::buildMatmul(cfg).main_program, {});
        first_listing = lir::printKernel(k);
        EXPECT_EQ(rt.compileCount(), 1);
        EXPECT_EQ(rt.diskLoadCount(), 0);
    }
    {
        cache::KernelCache disk(dir.path); // simulated restart
        runtime::Runtime rt(sim::l40s());
        rt.setDiskCache(&disk);
        const lir::Kernel &k = rt.getOrCompile(
            kernels::buildMatmul(cfg).main_program, {});
        EXPECT_EQ(rt.compileCount(), 0); // materialized from disk
        EXPECT_EQ(rt.diskLoadCount(), 1);
        EXPECT_EQ(lir::printKernel(k), first_listing);

        // In-memory tier takes over for the rebuilt equivalent bundle.
        const lir::Kernel &again = rt.getOrCompile(
            kernels::buildMatmul(cfg).main_program, {});
        EXPECT_EQ(&again, &k);
        EXPECT_EQ(rt.diskLoadCount(), 1);
    }
}

TEST(RuntimeCache, DiskLoadedKernelComputesCorrectly)
{
    // End to end through a *cache-materialized* kernel: upload, weight
    // transform, launch, download, compare against the double-precision
    // reference.
    TempDir dir;
    MatmulConfig cfg = tensorCoreConfig(uint4());
    const int64_t m = 16;
    PackedBuffer a = testing::randomActivations(m * cfg.k, 11);
    PackedBuffer b = testing::randomWeights(cfg.wdtype, cfg.k * cfg.n, 12);
    std::vector<double> want = testing::referenceMatmul(cfg, m, a, b,
                                                        nullptr);
    cache::KernelCache disk(dir.path);
    {
        runtime::Runtime rt(sim::l40s());
        rt.setDiskCache(&disk);
        testing::runMatmul(rt, cfg, m, a, b, nullptr);
        EXPECT_GT(rt.compileCount(), 0);
    }
    runtime::Runtime rt(sim::l40s());
    rt.setDiskCache(&disk);
    testing::MatmulRun run = testing::runMatmul(rt, cfg, m, a, b,
                                                nullptr);
    EXPECT_EQ(rt.compileCount(), 0);
    EXPECT_GT(rt.diskLoadCount(), 0);
    EXPECT_LT(testing::maxRelativeError(run.result, want), 5e-2);
}

// --------------------------------------------------------- tune database

autotune::SweepRequest
smallSweep(int64_t m)
{
    autotune::SweepRequest req;
    req.wdtype = uint4();
    req.n = 256;
    req.k = 256;
    req.m = m;
    req.space.bm_tc = {16, 32};
    req.space.bn = {64, 128};
    req.space.bk = {32};
    req.space.warps_m = {1};
    req.space.warps_n = {2};
    req.space.simt_warps = {2};
    req.space.stages = {2};
    return req;
}

TEST(TuneDb, WarmSweepMatchesColdAndSkipsCompilation)
{
    TempDir dir;
    cache::TuneDb db(dir.path);
    autotune::SweepRequest req = smallSweep(16);

    runtime::Runtime cold_rt(sim::l40s());
    cold_rt.setDiskCache(nullptr);
    autotune::TuneResult cold = autotune::sweepCached(cold_rt, req, &db);
    EXPECT_GT(cold.candidates_tried, 0);
    EXPECT_GT(cold_rt.compileCount(), 0);
    EXPECT_EQ(db.stats().stores, 1);

    runtime::Runtime warm_rt(sim::l40s()); // simulated restart
    warm_rt.setDiskCache(nullptr);
    autotune::TuneResult warm = autotune::sweepCached(warm_rt, req, &db);
    EXPECT_EQ(warm_rt.compileCount(), 0); // sweep skipped entirely
    EXPECT_EQ(warm.config.name(), cold.config.name());
    EXPECT_EQ(warm.candidates_tried, cold.candidates_tried);
    // Bit-exact latency record (doubles round-trip by bit pattern).
    EXPECT_EQ(warm.latency.total_us, cold.latency.total_us);
    EXPECT_EQ(warm.latency.pipelined, cold.latency.pipelined);
}

TEST(TuneDb, KeyCoversSpaceOptionsAndTraits)
{
    const sim::GpuSpec spec = sim::l40s();
    autotune::SweepRequest base = smallSweep(16);
    cache::Fingerprint key = autotune::tuneKey(base, spec);

    autotune::SweepRequest o0 = base;
    o0.opts.opt_level = compiler::OptLevel::O0;
    EXPECT_NE(autotune::tuneKey(o0, spec), key);

    autotune::SweepRequest wider = base;
    wider.space.stages = {2, 3};
    EXPECT_NE(autotune::tuneKey(wider, spec), key);

    autotune::SweepRequest traits = base;
    traits.traits.occupancy_factor = 0.5;
    EXPECT_NE(autotune::tuneKey(traits, spec), key);

    autotune::SweepRequest grouped = base;
    grouped.group_size = 64;
    EXPECT_NE(autotune::tuneKey(grouped, spec), key);

    EXPECT_NE(autotune::tuneKey(base, sim::a100()), key);
}

TEST(TuneDb, CorruptRecordDegradesToMiss)
{
    TempDir dir;
    cache::TuneDb db(dir.path);
    cache::TuneRecord record;
    record.config = tensorCoreConfig(uint4());
    record.latency.total_us = 12.5;
    record.candidates_tried = 7;
    cache::Fingerprint key;
    key.lo = 9;
    db.store(key, record);

    std::optional<cache::TuneRecord> loaded = db.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->config.name(), record.config.name());
    EXPECT_EQ(loaded->latency.total_us, 12.5);
    EXPECT_EQ(loaded->candidates_tried, 7);

    const std::string path = db.entryPath(key);
    const std::string blob = readFile(path);
    writeFile(path, blob.substr(0, blob.size() / 2));
    EXPECT_FALSE(db.load(key).has_value());
    std::string corrupt = blob;
    corrupt[corrupt.size() - 4] ^= 0x11;
    writeFile(path, corrupt);
    EXPECT_FALSE(db.load(key).has_value());
    EXPECT_EQ(db.stats().disk_errors, 2);
}

// --------------------------------------------------------- concurrency

TEST(CompilePool, ParallelForVisitsEveryIndexAndPropagates)
{
    std::vector<std::atomic<int>> hits(64);
    cache::parallelFor(
        64, [&](int64_t i) { hits[i].fetch_add(1); }, /*threads=*/4);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;

    EXPECT_THROW(cache::parallelFor(
                     16,
                     [&](int64_t i) {
                         if (i == 5)
                             throw SimError("boom");
                     },
                     4),
                 SimError);
}

TEST(CompilePool, LowestIndexExceptionWinsDeterministically)
{
    // Indices are claimed strictly in order (fetch_add), so the lowest
    // failing index is always among the claimed ones and parallelFor
    // must surface exactly it — not whichever thread lost the race.
    for (int trial = 0; trial < 20; ++trial) {
        try {
            cache::parallelFor(
                64,
                [&](int64_t i) {
                    if (i >= 8)
                        throw SimError("boom " + std::to_string(i));
                },
                4);
            FAIL() << "parallelFor swallowed the exception";
        } catch (const SimError &e) {
            EXPECT_STREQ(e.what(), "boom 8") << "trial " << trial;
        }
    }
}

// ------------------------------------------------------ fault injection
//
// Injected disk faults (src/support/fault.h) at the blob-store sites:
// reads and corruption degrade to a miss, transient write/rename
// failures are absorbed by writeBlobAtomic's bounded retry, and every
// failure path cleans up its temp file (satellite: no orphans).

/** Disarms the fault registry when a test scope exits. */
struct FaultGuard
{
    ~FaultGuard() { fault::disarm(); }
};

/** Count on-disk files whose name carries the atomic-write temp infix. */
int64_t
countOrphanTempFiles(const std::string &root)
{
    int64_t n = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() &&
            entry.path().filename().string().find(".tmp.") !=
                std::string::npos)
            ++n;
    }
    return n;
}

TEST(CacheFaults, InjectedReadErrorDegradesToMiss)
{
    FaultGuard guard;
    TempDir dir;
    cache::KernelCache cache(dir.path);
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 0x0ead;
    cache.store(fp, kernel);

    fault::configure("cache.disk.read=n1");
    EXPECT_EQ(cache.load(fp), nullptr); // injected I/O error -> miss
    EXPECT_EQ(cache.stats().disk_errors, 1);
    EXPECT_EQ(fault::injectionCount("cache.disk.read"), 1);
    EXPECT_NE(cache.load(fp), nullptr); // n1 fired; entry is intact
}

TEST(CacheFaults, InjectedCorruptionIsCaughtByContentHash)
{
    FaultGuard guard;
    TempDir dir;
    cache::KernelCache cache(dir.path);
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 0xc0;
    cache.store(fp, kernel);

    fault::configure("cache.disk.corrupt=n1");
    EXPECT_EQ(cache.load(fp), nullptr); // flipped payload bit -> miss
    EXPECT_EQ(cache.stats().disk_errors, 1);
    EXPECT_NE(cache.load(fp), nullptr);
}

TEST(CacheFaults, WriteRetryAbsorbsTransientFault)
{
    FaultGuard guard;
    TempDir dir;
    cache::KernelCache cache(dir.path);
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 0x3117e;

    obs::Counter &retries =
        obs::Registry::instance().counter("cache_blob_write_retries_total");
    const int64_t before = retries.value();
    fault::configure("cache.disk.write=n1"); // first attempt torn
    cache.store(fp, kernel);
    EXPECT_EQ(cache.stats().stores, 1); // retry made the store land
    EXPECT_EQ(retries.value() - before, 1);
    EXPECT_EQ(countOrphanTempFiles(dir.path), 0);
    EXPECT_NE(cache.load(fp), nullptr);
}

TEST(CacheFaults, RenameFailureCleansUpAndFailsStore)
{
    FaultGuard guard;
    TempDir dir;
    cache::KernelCache cache(dir.path);
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 0x4e4a;

    fault::configure("cache.disk.rename=always"); // exhausts the retry
    cache.store(fp, kernel);
    EXPECT_EQ(cache.stats().stores, 0);
    EXPECT_EQ(countOrphanTempFiles(dir.path), 0); // every tmp unlinked
    fault::disarm();
    EXPECT_EQ(cache.load(fp), nullptr); // nothing half-written
    cache.store(fp, kernel); // healthy disk: same instance recovers
    EXPECT_EQ(cache.stats().stores, 1);
    EXPECT_NE(cache.load(fp), nullptr);
}

TEST(CacheFaults, ConcurrentCorruptReadersDegradeToOneRecompile)
{
    // Satellite: N readers race one corrupt disk entry. Every reader
    // must degrade to a miss and end up on the single recompiled
    // kernel — never a crash, never N counted compiles.
    TempDir dir;
    MatmulConfig cfg = tensorCoreConfig(uint4());
    const ir::Program program = kernels::buildMatmul(cfg).main_program;
    const cache::Fingerprint fp = cache::fingerprintProgram(program, {});
    {
        cache::KernelCache disk(dir.path);
        runtime::Runtime rt(sim::l40s());
        rt.setDiskCache(&disk);
        rt.getOrCompile(program, {});
        EXPECT_EQ(rt.compileCount(), 1);
    }

    cache::KernelCache disk(dir.path); // simulated restart
    {
        // Flip a payload byte on disk so every load rejects the entry.
        const std::string path = disk.entryPath(fp);
        std::string blob = readFile(path);
        ASSERT_GT(blob.size(), 10u);
        blob[blob.size() - 10] ^= 0x40;
        writeFile(path, blob);
    }

    runtime::Runtime rt(sim::l40s());
    rt.setDiskCache(&disk);
    constexpr int kReaders = 8;
    std::vector<const lir::Kernel *> got(kReaders, nullptr);
    std::vector<std::thread> threads;
    threads.reserve(kReaders);
    for (int i = 0; i < kReaders; ++i)
        threads.emplace_back(
            [&, i] { got[i] = &rt.getOrCompile(program, {}); });
    for (std::thread &t : threads)
        t.join();

    for (int i = 1; i < kReaders; ++i)
        EXPECT_EQ(got[i], got[0]) << i; // one shared materialization
    EXPECT_EQ(rt.compileCount(), 1);
    EXPECT_EQ(rt.diskLoadCount(), 0); // corrupt entry never loaded
    EXPECT_GE(disk.stats().disk_errors, 1);
}

TEST(ConcurrentTuners, ThreadSafeAndDeterministic)
{
    // Four threads tune different problems against one shared Runtime,
    // one shared disk cache, and one shared tune database — exactly the
    // hot path of a multi-threaded serving warm-up. Results must match
    // a serial reference tuned on fresh state.
    TempDir dir;
    const std::vector<int64_t> problems = {8, 16, 32, 64};

    std::vector<std::string> serial(problems.size());
    for (size_t i = 0; i < problems.size(); ++i) {
        cache::TuneDb db(dir.path + "/serial" + std::to_string(i));
        runtime::Runtime rt(sim::l40s());
        rt.setDiskCache(nullptr);
        serial[i] =
            autotune::sweepCached(rt, smallSweep(problems[i]), &db)
                .config.name();
    }

    cache::KernelCache shared_disk(dir.path + "/shared");
    cache::TuneDb shared_db(dir.path + "/shared");
    runtime::Runtime shared_rt(sim::l40s());
    shared_rt.setDiskCache(&shared_disk);
    std::vector<std::string> parallel(problems.size());
    std::vector<std::thread> threads;
    threads.reserve(problems.size());
    for (size_t i = 0; i < problems.size(); ++i) {
        threads.emplace_back([&, i] {
            parallel[i] = autotune::sweepCached(
                              shared_rt, smallSweep(problems[i]),
                              &shared_db)
                              .config.name();
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (size_t i = 0; i < problems.size(); ++i)
        EXPECT_EQ(parallel[i], serial[i]) << "m=" << problems[i];
    EXPECT_EQ(shared_db.stats().stores,
              static_cast<int64_t>(problems.size()));
}

/** Every field of @p l by bit pattern (doubles compared bitwise). */
std::vector<uint64_t>
latencyBits(const sim::LatencyBreakdown &l)
{
    std::vector<uint64_t> out;
    for (double v : {l.total_us, l.dram_us, l.l2_us, l.tc_us, l.simt_us,
                     l.alu_us, l.smem_us, l.serial_us, l.launch_us,
                     l.occupancy_blocks_per_sm}) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        out.push_back(bits);
    }
    out.push_back(l.pipelined);
    out.push_back(static_cast<uint64_t>(l.blocks));
    return out;
}

TEST(ConcurrentTuners, PoolWidthInvariant)
{
    // A cold sweep prices its candidates on the compile pool. On fresh
    // state, one worker and four must store the same record (winner and
    // every candidate's breakdown, in enumeration order) and move the
    // compile, decode and probe counters by the same amounts.
    TempDir dir;
    autotune::SweepRequest req = smallSweep(12); // TC and SIMT families
    req.space.stages = {2, 3, 4};
    const char *const counters[] = {"compiler_compiles_total",
                                    "sim_microop_decodes_total",
                                    "sim_runs_total"};
    const char *env = std::getenv("TILUS_COMPILE_THREADS");
    const std::string saved = env ? env : "";

    struct Outcome
    {
        autotune::TuneResult result;
        std::string record_bytes;
        std::vector<int64_t> deltas;
    };
    auto sweepAt = [&](int width) {
        setenv("TILUS_COMPILE_THREADS", std::to_string(width).c_str(), 1);
        EXPECT_EQ(cache::compileThreads(), width);
        cache::TuneDb db(dir.path + "/w" + std::to_string(width));
        runtime::Runtime rt(sim::l40s());
        rt.setDiskCache(nullptr);
        const obs::Registry &registry = obs::Registry::instance();
        std::vector<int64_t> before;
        for (const char *name : counters)
            before.push_back(registry.counterValue(name));
        Outcome out;
        out.result = autotune::sweepCached(rt, req, &db);
        for (size_t i = 0; i < before.size(); ++i)
            out.deltas.push_back(registry.counterValue(counters[i]) -
                                 before[i]);
        out.record_bytes =
            readFile(db.entryPath(autotune::tuneKey(req, rt.spec())));
        return out;
    };
    const Outcome serial = sweepAt(1);
    const Outcome pooled = sweepAt(4);
    if (env)
        setenv("TILUS_COMPILE_THREADS", saved.c_str(), 1);
    else
        unsetenv("TILUS_COMPILE_THREADS");

    ASSERT_GT(serial.result.candidates_tried, 4);
    EXPECT_EQ(pooled.result.config.name(), serial.result.config.name());
    EXPECT_EQ(pooled.result.candidates_tried,
              serial.result.candidates_tried);
    EXPECT_EQ(latencyBits(pooled.result.latency),
              latencyBits(serial.result.latency));
    ASSERT_EQ(pooled.result.candidates.size(),
              serial.result.candidates.size());
    for (size_t i = 0; i < serial.result.candidates.size(); ++i) {
        EXPECT_EQ(pooled.result.candidates[i].config.name(),
                  serial.result.candidates[i].config.name())
            << i;
        EXPECT_EQ(latencyBits(pooled.result.candidates[i].latency),
                  latencyBits(serial.result.candidates[i].latency))
            << serial.result.candidates[i].config.name();
    }
    EXPECT_FALSE(serial.record_bytes.empty());
    EXPECT_EQ(pooled.record_bytes, serial.record_bytes);
    for (size_t i = 0; i < serial.deltas.size(); ++i) {
        EXPECT_GT(serial.deltas[i], 0) << counters[i];
        EXPECT_EQ(pooled.deltas[i], serial.deltas[i]) << counters[i];
    }
}

} // namespace
} // namespace tilus
