/**
 * @file
 * The tune workloads: cold_tune (an llm::ServingEngine warm-up of
 * Gemma-2-9B, u4 weights, simulated L40S, decode batches 1 and 16, from
 * an empty private cache) and retune (the same pass with the kernel
 * artifact store filled during set-up and the tune database empty).
 *
 * Untraced runs time the engine's own warmUp. Traced runs time one
 * untraced pass and read its deterministic counts (candidates, compiles,
 * cache hits and misses, decodes, probes) from the library's metrics
 * registry, then replay the identical sweeps — same requests, the
 * candidate lists the tuner recorded in the tune database, same pool
 * width — through the library's public calls with a span around each
 * layer. The replay must rebuild byte-identical kernels, pick the same
 * winners and reproduce the registry's counts.
 */
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <set>

#include "autotune/tuner.h"
#include "baselines/baselines.h"
#include "cache/blob_store.h"
#include "cache/compile_pool.h"
#include "cache/fingerprint.h"
#include "cache/kernel_cache.h"
#include "cache/serialize.h"
#include "cache/tune_db.h"
#include "compiler/compiler.h"
#include "harness.h"
#include "kernels/matmul.h"
#include "lir/lir.h"
#include "llm/engine.h"
#include "obs/metrics.h"
#include "opt/pass.h"
#include "opt/pass_manager.h"
#include "sim/gpu_spec.h"
#include "sim/interpreter.h"
#include "sim/microop.h"
#include "sim/timing.h"

namespace perfbench {
namespace {

using namespace tilus;

const std::vector<int64_t> kDecodeBatches = {1, 16};
constexpr int64_t kGroupSize = 128;

/** The seed picks the served context window (1024..1084 tokens). It
    moves the modeled attention term of every decode step, not the
    tuned kernels. */
llm::EngineOptions
engineOptions(uint64_t seed)
{
    llm::EngineOptions options;
    options.wdtype = uint4();
    options.group_size = kGroupSize;
    options.context_tokens =
        1024 + 4 * static_cast<int64_t>(mixSeed(seed, 1) % 16);
    return options;
}

/** Library counters (obs::Registry, always live) a tune pass moves. */
const char *const kPassCounters[] = {
    "tune_candidates_total",       "compiler_compiles_total",
    "opt_passes_changed_total",    "kernel_cache_disk_hit_total",
    "kernel_cache_disk_miss_total", "kernel_cache_store_total",
    "sim_microop_decodes_total",   "sim_microop_fallbacks_total",
    "sim_runs_total",
};

using Counts = std::map<std::string, int64_t>;

Counts
readCounters()
{
    Counts out;
    for (const char *name : kPassCounters)
        out[name] = obs::Registry::instance().counterValue(name);
    return out;
}

/** One engine tune pass and what it produced. */
struct TunePass
{
    double tune_s = 0;
    int compiles = 0;
    int disk_loads = 0;
    std::vector<double> decode_ms; ///< per kDecodeBatches entry
    Counts counters; ///< kPassCounters moved by the pass
};

TunePass
runTunePass(const RunConfig &config)
{
    runtime::Runtime rt(sim::l40s());
    llm::ServingEngine engine(rt, llm::gemma2_9b(),
                              engineOptions(config.seed));
    TunePass pass;
    const Counts before = readCounters();
    const double t0 = nowS();
    engine.warmUp(kDecodeBatches, {});
    pass.tune_s = nowS() - t0;
    for (const auto &[name, value] : readCounters())
        pass.counters[name] = value - before.at(name);
    pass.compiles = rt.compileCount();
    pass.disk_loads = rt.diskLoadCount();
    for (int64_t batch : kDecodeBatches)
        pass.decode_ms.push_back(engine.decodeMs(batch));
    return pass;
}

/**
 * The sweeps ServingEngine::warmUp runs, in its order: per decode
 * batch, every distinct quantized linear of the model (Tilus, grouped
 * scales), then the f16 LM head (cuBLAS-style dense kernel) — the
 * requests baselines::evaluateMatmul builds for those systems.
 */
std::vector<autotune::SweepRequest>
engineSweeps()
{
    const llm::ModelConfig model = llm::gemma2_9b();
    auto request = [](baselines::System system, DataType wdtype, int64_t n,
                      int64_t k, int64_t m, int64_t group) {
        autotune::SweepRequest req;
        req.wdtype = wdtype;
        req.n = n;
        req.k = k;
        req.m = m;
        req.group_size = wdtype.bits() == 16 ? 0 : group;
        req.opts.sm_arch = 80;
        req.opts.opt_level = compiler::OptLevel::O2;
        req.traits = baselines::systemTraits(system);
        return req;
    };
    std::vector<autotune::SweepRequest> sweeps;
    for (int64_t m : kDecodeBatches) {
        std::set<std::pair<int64_t, int64_t>> seen;
        for (const llm::LinearShape &shape : model.layerLinears())
            if (seen.insert({shape.n, shape.k}).second)
                sweeps.push_back(request(baselines::System::kTilus,
                                         uint4(), shape.n, shape.k, m,
                                         kGroupSize));
        sweeps.push_back(request(baselines::System::kCublas, float16(),
                                 model.vocab, model.hidden, m, 0));
    }
    return sweeps;
}

/** Winner name + latency of every sweep, read back from a tune DB;
    @p candidates, when given, receives each sweep's recorded candidate
    list in enumeration order. */
std::vector<std::string>
winners(const std::string &root, Result &result,
        std::vector<std::vector<kernels::MatmulConfig>> *candidates =
            nullptr)
{
    cache::TuneDb db(root);
    const sim::GpuSpec spec = sim::l40s();
    std::vector<std::string> out;
    for (const autotune::SweepRequest &req : engineSweeps()) {
        std::optional<cache::TuneRecord> record =
            db.load(autotune::tuneKey(req, spec));
        if (!record) {
            result.fail("tune DB has no record for sweep n=" +
                        std::to_string(req.n) + " m=" +
                        std::to_string(req.m));
            out.push_back("<missing>");
            if (candidates)
                candidates->emplace_back();
            continue;
        }
        if (candidates) {
            candidates->emplace_back();
            for (const cache::TuneCandidate &c : record->candidates)
                candidates->back().push_back(c.config);
        }
        char lat[40];
        std::snprintf(lat, sizeof(lat), "%a", record->latency.total_us);
        out.push_back(record->config.name() + "@" + lat);
    }
    return out;
}

/// LIR node count (every op and control node, recursively).
int64_t
countNodes(const lir::LBody &body)
{
    int64_t n = 0;
    for (const lir::LNode &node : body) {
        ++n;
        if (auto *f = std::get_if<lir::LFor>(&node.node)) {
            n += countNodes(*f->body);
        } else if (auto *w = std::get_if<lir::LWhile>(&node.node)) {
            n += countNodes(*w->body);
        } else if (auto *i = std::get_if<lir::LIf>(&node.node)) {
            n += countNodes(*i->then_body);
            if (i->else_body)
                n += countNodes(*i->else_body);
        }
    }
    return n;
}

/** The tuner's probe binding: the token count by name, pointers 0. */
ir::Env
ghostEnv(const lir::Kernel &kernel, int64_t m)
{
    ir::Env env;
    for (const ir::Var &p : kernel.params)
        env.bind(p, p.name() == "m" ? m : 0);
    return env;
}

/** The tuner's depth extrapolation: full = s1 + (s2 - s1) * extra
    (every counter is linear in the outer pipeline iterations). */
sim::SimStats
extrapolate(const sim::SimStats &s1, const sim::SimStats &s2, double extra)
{
    sim::SimStats out = s1;
    auto lin = [&](int64_t a, int64_t b) {
        return a + static_cast<int64_t>(
                       std::llround(static_cast<double>(b - a) * extra));
    };
    out.global_load_bytes = lin(s1.global_load_bytes, s2.global_load_bytes);
    out.global_store_bytes =
        lin(s1.global_store_bytes, s2.global_store_bytes);
    out.cp_async_bytes = lin(s1.cp_async_bytes, s2.cp_async_bytes);
    out.global_sectors = lin(s1.global_sectors, s2.global_sectors);
    out.ldg_ops = lin(s1.ldg_ops, s2.ldg_ops);
    out.stg_ops = lin(s1.stg_ops, s2.stg_ops);
    out.bit_extract_ops = lin(s1.bit_extract_ops, s2.bit_extract_ops);
    auto lin_map = [&](const std::map<int, int64_t> &m1,
                       const std::map<int, int64_t> &m2,
                       std::map<int, int64_t> &dst) {
        for (const auto &[id, b2] : m2) {
            auto it = m1.find(id);
            dst[id] = lin(it == m1.end() ? 0 : it->second, b2);
        }
    };
    lin_map(s1.load_bytes_by_global, s2.load_bytes_by_global,
            out.load_bytes_by_global);
    lin_map(s1.store_bytes_by_global, s2.store_bytes_by_global,
            out.store_bytes_by_global);
    out.smem_load_bytes = lin(s1.smem_load_bytes, s2.smem_load_bytes);
    out.smem_store_bytes = lin(s1.smem_store_bytes, s2.smem_store_bytes);
    out.lds_ops = lin(s1.lds_ops, s2.lds_ops);
    out.sts_ops = lin(s1.sts_ops, s2.sts_ops);
    out.ldmatrix_ops = lin(s1.ldmatrix_ops, s2.ldmatrix_ops);
    out.mma_ops = lin(s1.mma_ops, s2.mma_ops);
    out.mma_flops = lin(s1.mma_flops, s2.mma_flops);
    out.simt_fma = lin(s1.simt_fma, s2.simt_fma);
    out.alu_elt_ops = lin(s1.alu_elt_ops, s2.alu_elt_ops);
    out.cast_vec_elems = lin(s1.cast_vec_elems, s2.cast_vec_elems);
    out.cast_scalar_elems =
        lin(s1.cast_scalar_elems, s2.cast_scalar_elems);
    out.bar_syncs = lin(s1.bar_syncs, s2.bar_syncs);
    out.cp_commits = lin(s1.cp_commits, s2.cp_commits);
    out.max_groups_in_flight =
        std::max(s1.max_groups_in_flight, s2.max_groups_in_flight);
    out.overlapped = s1.overlapped || s2.overlapped;
    return out;
}

/** The standard O2 pipeline in order: pass name, span name, factory. */
struct O2Pass
{
    const char *name;
    const char *span;
    std::unique_ptr<opt::Pass> (*factory)();
};
const O2Pass kO2Passes[] = {
    {"pipeline-cpasync", "opt.pipeline-cpasync",
     &opt::createSoftwarePipelinePass},
    {"sync-elim", "opt.sync-elim", &opt::createSyncEliminationPass},
    {"dead-tensor", "opt.dead-tensor", &opt::createDeadTensorPass},
    {"addr-hoist", "opt.addr-hoist", &opt::createAddressHoistPass},
};

/**
 * Span-instrumented replay of autotune::sweepCached's miss path over a
 * given candidate list. Cold mode materializes every kernel the way
 * runtime::Runtime does on a disk miss (lower at O0, then each O2 pass
 * alone, serialize, hash, store); retune mode loads each from the
 * filled artifact store.
 */
class Replay
{
  public:
    Replay(Tracer &tracer, cache::KernelCache &store)
        : tracer_(tracer), store_(store), spec_(sim::l40s())
    {}

    /** Replay one sweep over @p candidates; returns
        "<winner>@<latency>" like winners(). */
    std::string sweep(const autotune::SweepRequest &req,
                      const std::vector<kernels::MatmulConfig> &candidates,
                      int64_t op);

    /**
     * Replayed kernels that differ from @p reference's artifact under
     * the same fingerprint. A payload embeds the process-global tensor
     * ids of the build that produced it, so two equivalent builds never
     * share payload bytes; the comparison uses the id-free listing
     * (lir::printKernel) and the payload size instead.
     */
    int64_t mismatchedKernels(cache::KernelCache &reference);

    /** Per-layer values only the replay observes (builds, compile
        times, LIR sizes, per-pass outcomes, payload bytes). */
    void layerValues(LayerValues &values) const;

    /** The replay's own counts, under the kPassCounters names they
        must equal. */
    Counts counts() const;

  private:
    struct Entry
    {
        std::unique_ptr<lir::Kernel> kernel;
        std::unique_ptr<sim::MicroProgram> program;
        size_t payload_size = 0;
    };

    Entry &materialize(const ir::Program &program,
                       const compiler::CompileOptions &opts);
    void compileInto(Entry &entry, const ir::Program &program,
                     const compiler::CompileOptions &opts);
    const sim::MicroProgram *decoded(Entry &entry);

    Tracer &tracer_;
    cache::KernelCache &store_;
    const sim::GpuSpec spec_;

    std::mutex mutex_; ///< guards everything below
    std::map<cache::Fingerprint, std::unique_ptr<Entry>> entries_;
    int64_t builds_ = 0;
    int64_t candidates_ = 0;
    int64_t compiles_ = 0;
    int64_t lir_instrs_ = 0;
    std::vector<double> compile_ms_;
    std::map<std::string, int64_t> pass_changed_, pass_instrs_;
    int64_t payload_bytes_ = 0;
    int64_t hits_ = 0, misses_ = 0;
    int64_t decodes_ = 0, fallbacks_ = 0, probes_ = 0, stores_ = 0;
};

Replay::Entry &
Replay::materialize(const ir::Program &program,
                    const compiler::CompileOptions &opts)
{
    cache::Fingerprint fp;
    {
        ScopedSpan span(&tracer_, "cache.fingerprint");
        fp = cache::fingerprintProgram(program, opts);
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(fp);
        if (it != entries_.end())
            return *it->second;
    }
    auto entry = std::make_unique<Entry>();
    {
        ScopedSpan span(&tracer_, "cache.load");
        entry->kernel = store_.load(fp);
    }
    const bool hit = entry->kernel != nullptr;
    std::string payload;
    if (hit) {
        // Break out the share of the load spent hashing and decoding,
        // on a payload re-serialized outside the layer spans.
        {
            ScopedSpan span(&tracer_, "bench.payload");
            payload = cache::serializeKernel(*entry->kernel);
        }
        {
            ScopedSpan span(&tracer_, "cache.hash");
            cache::payloadHash(payload);
        }
        ScopedSpan span(&tracer_, "cache.deserialize");
        cache::deserializeKernel(payload);
    } else {
        compileInto(*entry, program, opts);
        {
            ScopedSpan span(&tracer_, "cache.serialize");
            payload = cache::serializeKernel(*entry->kernel);
        }
        {
            ScopedSpan span(&tracer_, "cache.hash");
            cache::payloadHash(payload);
        }
        ScopedSpan span(&tracer_, "cache.store");
        store_.store(fp, *entry->kernel);
    }
    entry->payload_size = payload.size();
    std::lock_guard<std::mutex> lock(mutex_);
    ++(hit ? hits_ : misses_);
    stores_ += hit ? 0 : 1;
    payload_bytes_ += static_cast<int64_t>(payload.size());
    // A racing worker may have materialized the same kernel meanwhile
    // (the runtime discards its duplicate the same way).
    return *entries_.emplace(fp, std::move(entry)).first->second;
}

void
Replay::compileInto(Entry &entry, const ir::Program &program,
                    const compiler::CompileOptions &opts)
{
    compiler::CompileOptions o0 = opts;
    o0.opt_level = compiler::OptLevel::O0;
    double busy = 0;
    auto kernel = std::make_unique<lir::Kernel>();
    {
        ScopedSpan span(&tracer_, "compiler.lower");
        const double t0 = nowS();
        *kernel = compiler::compile(program, o0);
        busy += nowS() - t0;
    }
    const int64_t lowered = countNodes(kernel->body);
    std::vector<std::pair<bool, int64_t>> pass_out;
    for (const O2Pass &pass : kO2Passes) {
        bool changed;
        {
            ScopedSpan span(&tracer_, pass.span);
            const double t0 = nowS();
            opt::PassManager pm;
            pm.add(pass.factory());
            changed = pm.run(*kernel);
            busy += nowS() - t0;
        }
        pass_out.push_back({changed, countNodes(kernel->body)});
    }
    entry.kernel = std::move(kernel);
    std::lock_guard<std::mutex> lock(mutex_);
    ++compiles_;
    lir_instrs_ += lowered;
    compile_ms_.push_back(busy * 1e3);
    for (size_t i = 0; i < pass_out.size(); ++i) {
        pass_changed_[kO2Passes[i].name] += pass_out[i].first;
        pass_instrs_[kO2Passes[i].name] += pass_out[i].second;
    }
}

const sim::MicroProgram *
Replay::decoded(Entry &entry)
{
    if (!entry.program) {
        ScopedSpan span(&tracer_, "sim.decode");
        entry.program = std::make_unique<sim::MicroProgram>(
            sim::compileMicroProgram(*entry.kernel));
        ++decodes_;
    }
    return entry.program.get();
}

std::string
Replay::sweep(const autotune::SweepRequest &req,
              const std::vector<kernels::MatmulConfig> &candidates,
              int64_t op)
{
    ScopedSpan sweep_span(&tracer_, "autotune.sweep", op);
    candidates_ += static_cast<int64_t>(candidates.size());
    auto build = [&](const kernels::MatmulConfig &cfg) {
        ScopedSpan span(&tracer_, "kernels.build");
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++builds_;
        }
        return kernels::buildMatmul(cfg);
    };
    auto probeConfig = [](const kernels::MatmulConfig &cfg, int outers) {
        kernels::MatmulConfig p = cfg;
        p.k = cfg.bk * cfg.stages * outers;
        if (p.group_size > 0)
            p.group_size = p.bk;
        return p;
    };

    // Compile-ahead at the benchmark's pool width, as sweepCached does.
    const int64_t parent = sweep_span.id();
    cache::parallelFor(
        static_cast<int64_t>(candidates.size()),
        [&](int64_t i) {
            ParentScope scope(parent, op);
            for (int outers = 1; outers <= 2; ++outers)
                materialize(
                    build(probeConfig(candidates[i], outers)).main_program,
                    req.opts);
            materialize(build(candidates[i]).main_program, req.opts);
        },
        kPoolWidth);

    // The serial estimation loop.
    double best_us = std::numeric_limits<double>::infinity();
    std::string best;
    for (const kernels::MatmulConfig &cfg : candidates) {
        ScopedSpan span(&tracer_, "autotune.candidate");
        auto probe = [&](int outers) {
            Entry &entry = materialize(
                build(probeConfig(cfg, outers)).main_program, req.opts);
            const sim::MicroProgram *program = decoded(entry);
            ScopedSpan probe_span(&tracer_, "sim.probe");
            ++probes_;
            // The simulator runs an undecodable kernel on the tree walk.
            fallbacks_ += program->ok() ? 0 : 1;
            return sim::traceOneBlock(*entry.kernel,
                                      ghostEnv(*entry.kernel, req.m),
                                      program);
        };
        const sim::SimStats s1 = probe(1);
        const sim::SimStats s2 = probe(2);
        Entry &full = materialize(build(cfg).main_program, req.opts);
        sim::LatencyBreakdown est;
        {
            ScopedSpan timing_span(&tracer_, "sim.timing");
            const double full_outers =
                static_cast<double>(cfg.k / cfg.bk) / cfg.stages;
            est = sim::estimateLatency(
                *full.kernel, extrapolate(s1, s2, full_outers - 1.0),
                ghostEnv(*full.kernel, req.m), spec_, req.traits);
        }
        if (est.total_us < best_us) {
            best_us = est.total_us;
            best = cfg.name();
        }
    }
    char lat[40];
    std::snprintf(lat, sizeof(lat), "%a", best_us);
    return best + "@" + lat;
}

int64_t
Replay::mismatchedKernels(cache::KernelCache &reference)
{
    int64_t bad = 0;
    for (const auto &[fp, entry] : entries_) {
        std::unique_ptr<lir::Kernel> ref = reference.load(fp);
        if (!ref ||
            cache::serializeKernel(*ref).size() != entry->payload_size ||
            lir::printKernel(*ref) != lir::printKernel(*entry->kernel))
            ++bad;
    }
    return bad;
}

void
Replay::layerValues(LayerValues &values) const
{
    values["kernels.builds"] = static_cast<double>(builds_);
    values["compiler.compile_ms.p50"] = percentile(compile_ms_, 0.50);
    values["compiler.compile_ms.p99"] = percentile(compile_ms_, 0.99);
    values["compiler.lir_instrs"] = static_cast<double>(lir_instrs_);
    for (const O2Pass &pass : kO2Passes) {
        const std::string name = pass.name;
        auto get = [](const std::map<std::string, int64_t> &m,
                      const std::string &key) {
            auto it = m.find(key);
            return it == m.end() ? 0.0 : static_cast<double>(it->second);
        };
        values["opt." + name + ".changed"] = get(pass_changed_, name);
        values["opt." + name + ".lir_instrs"] = get(pass_instrs_, name);
    }
    values["cache.payload_bytes"] = static_cast<double>(payload_bytes_);
}

Counts
Replay::counts() const
{
    int64_t changed = 0;
    for (const auto &[name, n] : pass_changed_)
        changed += n;
    return {
        {"tune_candidates_total", candidates_},
        {"compiler_compiles_total", compiles_},
        {"opt_passes_changed_total", changed},
        {"kernel_cache_disk_hit_total", hits_},
        {"kernel_cache_disk_miss_total", misses_},
        {"kernel_cache_store_total", stores_},
        {"sim_microop_decodes_total", decodes_},
        {"sim_microop_fallbacks_total", fallbacks_},
        {"sim_runs_total", probes_},
    };
}

/** The deterministic per-layer counts of an untraced tune pass, from
    the library's own counters. */
void
registryValues(const Counts &c, LayerValues &values)
{
    auto get = [&](const char *name) {
        return static_cast<double>(c.at(name));
    };
    values["autotune.candidates"] = get("tune_candidates_total");
    values["compiler.compiles"] = get("compiler_compiles_total");
    const double hits = get("kernel_cache_disk_hit_total");
    const double misses = get("kernel_cache_disk_miss_total");
    values["cache.hits"] = hits;
    values["cache.misses"] = misses;
    values["cache.hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    const double probes = get("sim_runs_total");
    const double fallbacks = get("sim_microop_fallbacks_total");
    values["sim.decodes"] = get("sim_microop_decodes_total");
    values["sim.probes"] = probes;
    values["sim.decode_fallbacks"] = fallbacks;
    values["sim.microop_ratio"] =
        probes > 0 ? (probes - fallbacks) / probes : 0;
}

/**
 * Two small sweeps in memory, one per template family (SIMT at m = 1,
 * tensor core at m = 16; compiles on the pool, probes, timing), outside
 * the measured cache: they pay the process's first-touch costs — pool
 * threads, allocator arenas, code pages — before timing. They take about
 * a second, long enough for set-up time to be steady.
 */
void
primeProcess(const RunConfig &config)
{
    runtime::Runtime rt(sim::l40s());
    rt.setDiskCache(nullptr);
    cache::TuneDb db(config.work_dir + "/prime", /*enabled=*/false);
    for (int64_t m : kDecodeBatches) {
        autotune::SweepRequest req;
        req.n = 1024;
        req.k = 1024;
        req.m = m;
        req.group_size = kGroupSize;
        req.space.bm_tc = {16};
        req.space.bn = {64, 128, 256};
        req.space.bk = {32, 64};
        req.space.warps_m = {1};
        req.space.warps_n = {2, 4};
        req.space.simt_warps = {2, 4};
        req.space.stages = {2, 3, 4};
        autotune::sweepCached(rt, req, &db);
    }
}

/** Shared body of both tune workloads. */
void
runTune(const RunConfig &config, Result &result, bool cold)
{
    const std::string &root = config.cache_dir;
    const std::string kernels_dir = root + "/kernels";
    const std::string tune_dir = root + "/tune";
    const int sweeps = static_cast<int>(engineSweeps().size());

    // Set-up. cold_tune: empty the private cache and pay the process's
    // first-touch costs on a small in-memory sweep. retune: fill the
    // artifact store with a cold pass.
    TunePass reference;
    std::vector<std::string> reference_winners;
    const double setup_s = timedSetup(kSetupReps, [&] {
        clearDir(kernels_dir);
        clearDir(tune_dir);
        if (cold) {
            primeProcess(config);
        } else {
            reference = runTunePass(config);
            reference_winners = winners(root, result);
        }
    });

    // One measured pass, checked: every sweep found a winner, the
    // counts and modeled times repeat exactly, retune compiles nothing.
    bool have_first = false;
    TunePass first;
    std::vector<std::string> first_winners;
    auto measured = [&]() {
        clearDir(tune_dir);
        if (cold)
            clearDir(kernels_dir);
        result.attempt(sweeps);
        TunePass pass = runTunePass(config);
        std::vector<std::string> w = winners(root, result);
        for (double ms : pass.decode_ms)
            result.check(std::isfinite(ms) && ms > 0,
                         "non-finite modeled decode time");
        result.check(pass.counters.at("compiler_compiles_total") ==
                         pass.compiles,
                     "compile counter disagrees with the runtime's count");
        if (cold)
            result.check(pass.compiles > 0 && pass.disk_loads == 0,
                         "cold pass did not compile from an empty cache");
        else
            result.check(pass.compiles == 0 && pass.disk_loads > 0,
                         "retune compiled " +
                             std::to_string(pass.compiles) + " kernels");
        if (!cold) {
            result.check(pass.decode_ms == reference.decode_ms,
                         "retune modeled decode differs from cold tune");
            result.check(w == reference_winners,
                         "retune winners differ from cold tune");
        }
        if (!have_first) {
            first = pass;
            first_winners = w;
            have_first = true;
        } else {
            result.check(pass.decode_ms == first.decode_ms &&
                             w == first_winners,
                         "tune pass did not repeat exactly");
            result.check(pass.compiles == first.compiles &&
                             pass.disk_loads == first.disk_loads &&
                             pass.counters == first.counters,
                         "tune pass counts did not repeat");
        }
        return pass;
    };

    if (!config.trace) {
        std::vector<double> tune_s;
        timedLoop(config.seconds, 1,
                  [&] { tune_s.push_back(measured().tune_s); });
        result.metric("setup_s", setup_s, "s");
        result.metric("host_s", fastest(tune_s), "s");
        result.metric("modeled_ms", geomean(first.decode_ms), "ms");
        std::printf("tune passes: %zu, compiles/pass: %d, disk loads/pass: "
                    "%d, sweeps/pass: %d\n",
                    tune_s.size(), first.compiles, first.disk_loads,
                    sweeps);
        return;
    }

    // Traced run: an untraced pass, the span-instrumented replay of the
    // candidate lists it recorded, and another untraced pass; the
    // overhead divides by the mean of the two untraced passes so that
    // the order does not bias it.
    const TunePass untraced = measured();
    std::vector<std::vector<kernels::MatmulConfig>> candidates;
    winners(root, result, &candidates);
    const std::string replay_root = config.work_dir + "/replay_cache";
    clearDir(replay_root);
    cache::KernelCache replay_store(replay_root);
    cache::KernelCache untraced_store(root);
    Tracer tracer;
    Replay replay(tracer, cold ? replay_store : untraced_store);
    std::vector<std::string> replay_winners;
    const double start = nowS();
    {
        ScopedSpan root_span(&tracer, "bench.replay");
        std::vector<autotune::SweepRequest> reqs = engineSweeps();
        for (size_t i = 0; i < reqs.size(); ++i)
            replay_winners.push_back(replay.sweep(
                reqs[i], candidates[i], static_cast<int64_t>(i)));
    }
    const double end = nowS();

    result.attempt(sweeps);
    result.check(replay_winners == first_winners,
                 "replayed winners differ from the untraced pass");
    if (cold) {
        // Retune replays the very artifacts the untraced pass loaded.
        const int64_t mismatched = replay.mismatchedKernels(untraced_store);
        result.check(mismatched == 0,
                     std::to_string(mismatched) +
                         " replayed kernels differ from the untraced ones");
    }
    // Counts come from the library's counters; the replay must match
    // them, or its spans time different work.
    LayerValues values;
    registryValues(untraced.counters, values);
    replay.layerValues(values);
    for (const auto &[name, n] : replay.counts())
        result.check(n == untraced.counters.at(name),
                     "replay " + name + " " + std::to_string(n) +
                         " differs from the library's " +
                         std::to_string(untraced.counters.at(name)));
    const double untraced_s = 0.5 * (untraced.tune_s + measured().tune_s);
    addSpanTimes(tracer, values);
    traceSummary(config, tracer, start, end, untraced_s, values);
    emitLayerMetrics(values, result);
}

} // namespace

void
runColdTune(const RunConfig &config, Result &result)
{
    runTune(config, result, /*cold=*/true);
}

void
runRetune(const RunConfig &config, Result &result)
{
    runTune(config, result, /*cold=*/false);
}

} // namespace perfbench
