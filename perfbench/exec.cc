/**
 * @file
 * The kernel_exec workload: kernels are compiled during set-up; the run
 * then repeats one sweep over ten weight types (u1..u8, int4 and the
 * sub-byte float f6e3m2) that uploads the inputs, launches each path's
 * weight transform and matmul on both the SIMT path (m < 16) and the
 * tensor-core path (m = 16) through runtime::Runtime::launch, and
 * downloads the outputs. Outputs are checked, outside the timing,
 * against a double-precision reference computed from the raw inputs.
 */
#include <cmath>
#include <cstdio>
#include <memory>

#include "dtype/cast.h"
#include "harness.h"
#include "kernels/matmul.h"
#include "runtime/runtime.h"
#include "sim/gpu_spec.h"

namespace perfbench {
namespace {

using namespace tilus;

constexpr int64_t kN = 256;
constexpr int64_t kK = 256;
constexpr int64_t kGroup = 64;
constexpr int64_t kTcTokens = 16;

/** Weight types spanning the 1-8 bit spectrum, with the tolerance of
    each (max |got - want| / max(1, |want|) over the f16 output). */
const std::vector<std::pair<DataType, double>> &
weightTypes()
{
    static const std::vector<std::pair<DataType, double>> types = {
        {uint1(), 1e-2},      {uint2(), 1e-2}, {uint3(), 1e-2},
        {uint4(), 1e-2},      {uint5(), 1e-2}, {uint6(), 1e-2},
        {uint7(), 1e-2},      {uint8(), 1e-2}, {int4(), 1e-2},
        {float6e3m2(), 1e-2},
    };
    return types;
}

/** One matmul path (SIMT or tensor core) of one weight type. */
struct Path
{
    kernels::MatmulConfig cfg;
    int64_t m = 0;
    const lir::Kernel *kernel = nullptr;
    const lir::Kernel *transform = nullptr; ///< this path's weight layout
    kernels::MatmulBundle bundle;
    PackedBuffer a;
    runtime::DeviceTensor a_dev, b_dev, c_dev;
    std::vector<double> want; ///< reference C, row-major m x n
    std::vector<uint8_t> first_output;
    double modeled_us = 0;           ///< the matmul
    double modeled_transform_us = 0; ///< the weight transform
};

/** One weight type: raw weights, scales, and the two paths. */
struct Case
{
    DataType wdtype;
    double tolerance = 0;
    PackedBuffer b, scales;
    runtime::DeviceTensor b_raw, s_dev;
    Path simt, tc;
};

/** Compiled kernels, device buffers and references of one set-up. */
struct Workbench
{
    std::unique_ptr<runtime::Runtime> rt;
    std::vector<Case> cases;
};

kernels::MatmulConfig
pathConfig(DataType wdtype, int64_t m, bool tensor_cores)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = wdtype;
    cfg.n = kN;
    cfg.k = kK;
    cfg.bk = 64;
    cfg.stages = 2;
    cfg.group_size = kGroup;
    cfg.use_tensor_cores = tensor_cores;
    if (tensor_cores) {
        cfg.bm = 16;
        cfg.bn = 64;
        cfg.warp_m = 1;
        cfg.warp_n = 2;
    } else {
        cfg.bm = std::min<int64_t>(m, 8);
        cfg.bn = 128;
        cfg.simt_warps = 4;
    }
    return cfg;
}

/** Dequantized weight under the kernel's semantics: cast to f16,
    subtract the zero point, scale, round through f16 again. */
std::vector<double>
dequantized(const Case &c)
{
    std::vector<double> w(static_cast<size_t>(kK * kN));
    const double zero = kernels::dequantZero(c.wdtype);
    for (int64_t r = 0; r < kK; ++r) {
        for (int64_t col = 0; col < kN; ++col) {
            double q = decodeValue(c.wdtype, c.b.getRaw(r * kN + col));
            q = decodeValue(float16(), encodeValue(float16(), q));
            q -= zero;
            q *= decodeValue(float16(),
                             c.scales.getRaw((r / kGroup) * kN + col));
            w[r * kN + col] =
                decodeValue(float16(), encodeValue(float16(), q));
        }
    }
    return w;
}

void
preparePath(runtime::Runtime &rt, Case &c, Path &p, int64_t m,
            bool tensor_cores, const std::vector<double> &w, InputRng &rng,
            Result &result)
{
    p.m = m;
    p.cfg = pathConfig(c.wdtype, m, tensor_cores);
    if (!p.cfg.valid()) {
        result.fail("invalid config " + p.cfg.name());
        return;
    }
    p.bundle = kernels::buildMatmul(p.cfg);
    p.kernel = &rt.getOrCompile(p.bundle.main_program, {});
    p.transform = &rt.getOrCompile(*p.bundle.transform_program, {});
    p.b_dev = rt.alloc(uint8(), {kK / p.cfg.bk, kN / p.cfg.bn,
                                 p.cfg.tileBytes()});
    p.a = PackedBuffer(float16(), m * kK);
    for (int64_t i = 0; i < p.a.numel(); ++i)
        p.a.setRaw(i, encodeValue(float16(), rng.uniform(-2.0, 2.0)));
    p.a_dev = rt.alloc(float16(), {m, kK});
    p.c_dev = rt.alloc(float16(), {m, kN});
    p.want.assign(static_cast<size_t>(m * kN), 0.0);
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t kk = 0; kk < kK; ++kk) {
            const double a = decodeValue(float16(), p.a.getRaw(i * kK + kk));
            const double *row = &w[kk * kN];
            double *out = &p.want[i * kN];
            for (int64_t j = 0; j < kN; ++j)
                out[j] += a * row[j];
        }
    }
}

std::vector<runtime::KernelArg>
launchArgs(const Case &c, const Path &p)
{
    return {{p.bundle.m, p.m},
            {p.bundle.a_ptr, int64_t(p.a_dev.ptr)},
            {p.bundle.b_ptr, int64_t(p.b_dev.ptr)},
            {p.bundle.scale_ptr, int64_t(c.s_dev.ptr)},
            {p.bundle.c_ptr, int64_t(p.c_dev.ptr)}};
}

std::vector<runtime::KernelArg>
transformArgs(const Case &c, const Path &p)
{
    return {{p.bundle.t_in_ptr, int64_t(c.b_raw.ptr)},
            {p.bundle.t_out_ptr, int64_t(p.b_dev.ptr)}};
}

/** Generate inputs, compute references, compile every kernel. */
Workbench
setUp(uint64_t seed, int64_t simt_tokens, Result &result)
{
    Workbench wb;
    wb.rt = std::make_unique<runtime::Runtime>(sim::l40s());
    wb.rt->setDiskCache(nullptr); // compile in set-up, touch no store
    runtime::Runtime &rt = *wb.rt;
    InputRng rng(mixSeed(seed, 2));
    for (const auto &[wdtype, tolerance] : weightTypes()) {
        Case c;
        c.wdtype = wdtype;
        c.tolerance = tolerance;
        c.b = PackedBuffer(wdtype, kK * kN);
        for (int64_t i = 0; i < c.b.numel(); ++i) {
            if (wdtype.isFloat())
                c.b.setRaw(i, encodeValue(wdtype, rng.uniform(-4.0, 4.0)));
            else
                c.b.setRaw(i, rng.next() & ((1ULL << wdtype.bits()) - 1));
        }
        c.scales = PackedBuffer(float16(), (kK / kGroup) * kN);
        for (int64_t i = 0; i < c.scales.numel(); ++i)
            c.scales.setRaw(i,
                            encodeValue(float16(), rng.uniform(0.25, 1.5)));
        const std::vector<double> w = dequantized(c);
        preparePath(rt, c, c.simt, simt_tokens, false, w, rng, result);
        preparePath(rt, c, c.tc, kTcTokens, true, w, rng, result);
        c.b_raw = rt.alloc(wdtype, {kK, kN});
        c.s_dev = rt.alloc(float16(), {kK / kGroup, kN});
        for (Path *p : {&c.simt, &c.tc}) {
            p->modeled_us = rt.estimate(*p->kernel, launchArgs(c, *p))
                                .total_us;
            p->modeled_transform_us =
                rt.estimate(*p->transform, transformArgs(c, *p)).total_us;
        }
        wb.cases.push_back(std::move(c));
    }
    return wb;
}

/** SimStats op counters summed (the functional simulator's work). */
int64_t
opCount(const sim::SimStats &s)
{
    return s.ldg_ops + s.stg_ops + s.lds_ops + s.sts_ops + s.ldmatrix_ops +
           s.mma_ops + s.simt_fma + s.alu_elt_ops + s.cast_vec_elems +
           s.cast_scalar_elems + s.bit_extract_ops + s.bar_syncs +
           s.cp_commits;
}

/**
 * One sweep over every weight type: upload, transform, both matmuls,
 * download. Checks run after the sweep, outside its timing. Returns the
 * sweep's host time.
 */
double
sweep(Workbench &wb, Tracer *tracer, LayerValues *values, Result &result)
{
    runtime::Runtime &rt = *wb.rt;
    std::vector<std::pair<Path *, PackedBuffer>> outputs;
    int64_t launch = 0;
    auto run = [&](const lir::Kernel &kernel,
                   const std::vector<runtime::KernelArg> &args) {
        ScopedSpan span(tracer, "sim.exec", launch++);
        const sim::SimStats stats = rt.launch(kernel, args);
        if (values) {
            (*values)["sim.launches"] += 1;
            (*values)["sim.ops"] += static_cast<double>(opCount(stats));
        }
    };
    const double t0 = nowS();
    for (Case &c : wb.cases) {
        {
            ScopedSpan span(tracer, "runtime.upload", launch);
            rt.upload(c.b_raw, c.b);
            rt.upload(c.s_dev, c.scales);
            rt.upload(c.simt.a_dev, c.simt.a);
            rt.upload(c.tc.a_dev, c.tc.a);
        }
        for (Path *p : {&c.simt, &c.tc}) {
            run(*p->transform, transformArgs(c, *p));
            run(*p->kernel, launchArgs(c, *p));
            ScopedSpan span(tracer, "runtime.download", launch);
            outputs.push_back({p, rt.download(p->c_dev)});
        }
    }
    const double elapsed = nowS() - t0;

    size_t index = 0;
    for (Case &c : wb.cases) {
        result.attempt(4); // per path: transform + matmul
        for (int path = 0; path < 2; ++path, ++index) {
            auto &[p, got] = outputs[index];
            double worst = 0;
            for (int64_t i = 0; i < got.numel(); ++i) {
                const double want = p->want[static_cast<size_t>(i)];
                const double v = decodeValue(float16(), got.getRaw(i));
                worst = std::max(worst, std::abs(v - want) /
                                            std::max(1.0, std::abs(want)));
            }
            result.check(worst <= c.tolerance,
                         c.wdtype.name() + (path ? " tensor-core" : " SIMT") +
                             " matmul error " + std::to_string(worst));
            std::vector<uint8_t> bytes(got.data(),
                                       got.data() + got.byteSize());
            if (p->first_output.empty())
                p->first_output = bytes;
            else
                result.check(bytes == p->first_output,
                             "launch output did not repeat bit for bit");
        }
    }
    return elapsed;
}

} // namespace

void
runKernelExec(const RunConfig &config, Result &result)
{
    // The seed picks every input value and the SIMT token count in
    // 9..15: two 8-row blocks at every such count, so the simulated work
    // stays the same while the modeled store traffic moves a little.
    const int64_t simt_tokens =
        9 + static_cast<int64_t>(mixSeed(config.seed, 3) % 7);
    Workbench wb;
    const double setup_s = timedSetup(kSetupReps, [&] {
        Result scratch;
        wb = setUp(config.seed, simt_tokens, scratch);
        if (scratch.failed() > 0)
            for (const std::string &e : scratch.errors())
                result.fail(e);
    });
    if (result.failed() > 0) {
        result.attempt(1);
        return;
    }
    // Every executed kernel: both paths' weight transform and matmul.
    std::vector<double> modeled;
    for (const Case &c : wb.cases)
        for (const Path *p : {&c.simt, &c.tc}) {
            modeled.push_back(p->modeled_transform_us);
            modeled.push_back(p->modeled_us);
        }

    if (!config.trace) {
        // One untimed sweep first: it pays the device buffers' first
        // touch, which set-up allocated but did not write.
        sweep(wb, nullptr, nullptr, result);
        std::vector<double> exec_s;
        timedLoop(config.seconds, 3, [&] {
            exec_s.push_back(sweep(wb, nullptr, nullptr, result));
        }, /*rotate_cpus=*/true);
        result.metric("setup_s", setup_s, "s");
        result.metric("host_s", fastest(exec_s), "s");
        result.metric("modeled_ms", geomean(modeled) / 1000.0, "ms");
        std::printf("exec sweeps: %zu, SIMT tokens: %lld, kernels: %zu\n",
                    exec_s.size(), static_cast<long long>(simt_tokens),
                    modeled.size());
        return;
    }

    // The untraced reference: median of two sweeps before the traced
    // one (after a first-touch sweep) and one after it.
    sweep(wb, nullptr, nullptr, result);
    std::vector<double> untraced;
    for (int i = 0; i < 2; ++i)
        untraced.push_back(sweep(wb, nullptr, nullptr, result));
    Tracer tracer;
    LayerValues values;
    const double start = nowS();
    {
        ScopedSpan root(&tracer, "bench.sweep");
        sweep(wb, &tracer, &values, result);
    }
    const double end = nowS();
    untraced.push_back(sweep(wb, nullptr, nullptr, result));
    addSpanTimes(tracer, values);
    values["sim.ops_per_s"] =
        values["sim.exec_s"] > 0 ? values["sim.ops"] / values["sim.exec_s"]
                                 : 0;
    traceSummary(config, tracer, start, end, median(untraced), values);
    emitLayerMetrics(values, result);
}

} // namespace perfbench
