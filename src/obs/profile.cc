#include "obs/profile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "obs/build_info.h"
#include "obs/sink.h"
#include "obs/trace.h"

namespace tilus {
namespace obs {

namespace {

/** printKernel-style mnemonic of a leaf op. */
struct OpcodeVisitor
{
    const char *operator()(const lir::LoadGlobalVec &) const
    {
        return "ldg";
    }
    const char *operator()(const lir::StoreGlobalVec &) const
    {
        return "stg";
    }
    const char *operator()(const lir::LoadGlobalBits &) const
    {
        return "ldg.bits";
    }
    const char *operator()(const lir::StoreGlobalBits &) const
    {
        return "stg.bits";
    }
    const char *operator()(const lir::LoadSharedVec &op) const
    {
        return op.via_ldmatrix ? "ldmatrix" : "lds";
    }
    const char *operator()(const lir::StoreSharedVec &) const
    {
        return "sts";
    }
    const char *operator()(const lir::CpAsync &) const
    {
        return "cp.async";
    }
    const char *operator()(const lir::CpAsyncCommit &) const
    {
        return "cp.async.commit_group";
    }
    const char *operator()(const lir::CpAsyncWait &) const
    {
        return "cp.async.wait_group";
    }
    const char *operator()(const lir::BarSync &) const
    {
        return "bar.sync";
    }
    const char *operator()(const lir::MmaTile &) const { return "mma"; }
    const char *operator()(const lir::SimtDot &) const
    {
        return "simt.dot";
    }
    const char *operator()(const lir::EltwiseBinary &) const
    {
        return "elt.bin";
    }
    const char *operator()(const lir::EltwiseScalar &) const
    {
        return "elt.scalar";
    }
    const char *operator()(const lir::EltwiseUnary &) const
    {
        return "elt.unary";
    }
    const char *operator()(const lir::CastTensor &) const
    {
        return "cast";
    }
    const char *operator()(const lir::InitTensor &) const
    {
        return "init";
    }
    const char *operator()(const lir::PrintTensor &) const
    {
        return "print";
    }
    const char *operator()(const lir::ExitOp &) const { return "exit"; }
};

/** Shortest decimal form of @p v that parses back exactly. */
std::string
fmtDouble(double v)
{
    if (!std::isfinite(v))
        return "0"; // profiles never carry inf/nan; keep JSON valid
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
countersJson(const sim::Counters &c)
{
    std::string o = "{";
#define TILUS_COUNTER_JSON(f)                                            \
    o += "\"" #f "\":" + std::to_string(c.f) + ",";
    TILUS_SIM_COUNTERS(TILUS_COUNTER_JSON)
#undef TILUS_COUNTER_JSON
    o.back() = '}';
    return o;
}

std::string
componentsJson(const ComponentUs &c)
{
    std::string o = "{";
    o += "\"alu_us\":" + fmtDouble(c.alu_us);
    o += ",\"dram_us\":" + fmtDouble(c.dram_us);
    o += ",\"l2_us\":" + fmtDouble(c.l2_us);
    o += ",\"serial_us\":" + fmtDouble(c.serial_us);
    o += ",\"simt_us\":" + fmtDouble(c.simt_us);
    o += ",\"smem_us\":" + fmtDouble(c.smem_us);
    o += ",\"tc_us\":" + fmtDouble(c.tc_us);
    o += '}';
    return o;
}

std::string
latencyJson(const sim::LatencyBreakdown &l)
{
    std::string o = "{";
    o += "\"alu_us\":" + fmtDouble(l.alu_us);
    o += ",\"blocks\":" + std::to_string(l.blocks);
    o += ",\"dram_us\":" + fmtDouble(l.dram_us);
    o += ",\"l2_us\":" + fmtDouble(l.l2_us);
    o += ",\"launch_us\":" + fmtDouble(l.launch_us);
    o += ",\"occupancy_blocks_per_sm\":" +
         fmtDouble(l.occupancy_blocks_per_sm);
    o += ",\"pipelined\":";
    o += l.pipelined ? "true" : "false";
    o += ",\"serial_us\":" + fmtDouble(l.serial_us);
    o += ",\"simt_us\":" + fmtDouble(l.simt_us);
    o += ",\"smem_us\":" + fmtDouble(l.smem_us);
    o += ",\"tc_us\":" + fmtDouble(l.tc_us);
    o += ",\"total_us\":" + fmtDouble(l.total_us);
    o += '}';
    return o;
}

std::string
quoted(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

} // namespace

const char *
regionName(Region region)
{
    switch (region) {
      case Region::kPrologue: return "prologue";
      case Region::kMainLoop: return "main_loop";
      case Region::kEpilogue: return "epilogue";
    }
    return "prologue";
}

const char *
boundName(Bound bound)
{
    switch (bound) {
      case Bound::kDram: return "dram";
      case Bound::kL2: return "l2";
      case Bound::kTensorCore: return "tensor_core";
      case Bound::kSimt: return "simt";
      case Bound::kAlu: return "alu";
      case Bound::kSmem: return "smem";
      case Bound::kSerialization: return "serialization";
    }
    return "dram";
}

Bound
classify(const ComponentUs &c)
{
    const std::pair<Bound, double> comps[] = {
        {Bound::kDram, c.dram_us},        {Bound::kL2, c.l2_us},
        {Bound::kTensorCore, c.tc_us},    {Bound::kSimt, c.simt_us},
        {Bound::kAlu, c.alu_us},          {Bound::kSmem, c.smem_us},
        {Bound::kSerialization, c.serial_us},
    };
    Bound best = Bound::kDram;
    double best_us = c.dram_us;
    for (const auto &[bound, us] : comps) {
        if (us > best_us) {
            best = bound;
            best_us = us;
        }
    }
    return best;
}

Bound
classifyBound(const sim::LatencyBreakdown &breakdown)
{
    ComponentUs c;
    c.dram_us = breakdown.dram_us;
    c.l2_us = breakdown.l2_us;
    c.tc_us = breakdown.tc_us;
    c.simt_us = breakdown.simt_us;
    c.alu_us = breakdown.alu_us;
    c.smem_us = breakdown.smem_us;
    c.serial_us = breakdown.serial_us;
    return classify(c);
}

// ------------------------------------------------------------------
// KernelProfile JSON
// ------------------------------------------------------------------

std::string
KernelProfile::toJson() const
{
    std::string o = "{";
    o += "\"arith_intensity\":" + fmtDouble(arith_intensity);
    o += ",\"blocks_profiled\":" + std::to_string(blocks_profiled);
    o += ",\"bound\":" + quoted(boundName(bound));
    o += ",\"engine\":" + quoted(engine);
    o += ",\"instructions\":[";
    for (size_t i = 0; i < instructions.size(); ++i) {
        const InstrProfile &instr = instructions[i];
        if (i)
            o += ',';
        o += "{\"components\":" + componentsJson(instr.components);
        o += ",\"counters\":" + countersJson(instr.counters);
        o += ",\"est_us\":" + fmtDouble(instr.estUs());
        o += ",\"executions\":" + std::to_string(instr.executions);
        o += ",\"id\":" + std::to_string(instr.id);
        o += ",\"opcode\":" + quoted(instr.opcode);
        o += ",\"region\":" + quoted(regionName(instr.region));
        o += '}';
    }
    o += "],\"kernel\":" + quoted(kernel);
    o += ",\"latency\":" + latencyJson(latency);
    o += ",\"memory_bound\":";
    o += memory_bound ? "true" : "false";
    o += ",\"regions\":[";
    for (int r = 0; r < kNumRegions; ++r) {
        const RegionProfile &reg = regions[static_cast<size_t>(r)];
        if (r)
            o += ',';
        o += "{\"bound\":" + quoted(boundName(reg.bound));
        o += ",\"components\":" + componentsJson(reg.components);
        o += ",\"counters\":" + countersJson(reg.counters);
        o += ",\"executions\":" + std::to_string(reg.executions);
        o += ",\"instructions\":" + std::to_string(reg.instructions);
        o += ",\"region\":" + quoted(regionName(reg.region));
        o += '}';
    }
    o += "],\"ridge_flops_per_byte\":" + fmtDouble(ridge_flops_per_byte);
    o += ",\"totals\":" + countersJson(totals);
    o += '}';
    return o;
}

// ------------------------------------------------------------------
// ProfileCollector
// ------------------------------------------------------------------

ProfileCollector::ProfileCollector(const lir::Kernel &kernel)
    : kernel_(kernel)
{
    // Locate the main k-loop: the first top-level-reachable LFor whose
    // extent is the kernel's main_loop_extent — by node identity when
    // the kernel came straight from the compiler, by structural key
    // when it was deserialized from the kernel cache (node identity
    // does not survive the round trip).
    std::string main_key;
    if (kernel.main_loop_extent)
        main_key = ir::structuralKey(kernel.main_loop_extent);

    enum class Phase
    {
        kBefore,
        kInside,
        kAfter
    };
    Phase phase = Phase::kBefore;
    bool main_found = false;

    std::function<void(const lir::LBody &)> walk =
        [&](const lir::LBody &body) {
            for (const lir::LNode &node : body) {
                if (const lir::LOp *op =
                        std::get_if<lir::LOp>(&node.node)) {
                    InstrProfile row;
                    row.id = static_cast<int>(rows_.size());
                    row.opcode = std::visit(OpcodeVisitor{}, *op);
                    row.region = phase == Phase::kBefore
                                     ? Region::kPrologue
                                 : phase == Phase::kInside
                                     ? Region::kMainLoop
                                     : Region::kEpilogue;
                    index_.emplace(op, row.id);
                    rows_.push_back(std::move(row));
                } else if (const lir::LFor *loop =
                               std::get_if<lir::LFor>(&node.node)) {
                    bool is_main =
                        !main_found && phase == Phase::kBefore &&
                        kernel.main_loop_extent &&
                        (loop->extent.get() ==
                             kernel.main_loop_extent.get() ||
                         ir::structuralKey(loop->extent) == main_key);
                    if (is_main) {
                        main_found = true;
                        phase = Phase::kInside;
                    }
                    walk(*loop->body);
                    if (is_main)
                        phase = Phase::kAfter;
                } else if (const lir::LIf *branch =
                               std::get_if<lir::LIf>(&node.node)) {
                    walk(*branch->then_body);
                    if (branch->else_body)
                        walk(*branch->else_body);
                } else if (const lir::LWhile *loop_w =
                               std::get_if<lir::LWhile>(&node.node)) {
                    walk(*loop_w->body);
                }
                // LAssign / LBreak / LContinue carry no leaf ops.
            }
        };
    walk(kernel.body);
}

sim::Counters
ProfileCollector::attributedTotals() const
{
    sim::Counters total;
    for (const InstrProfile &row : rows_)
        total.add(row.counters);
    return total;
}

KernelProfile
ProfileCollector::finish(const sim::SimStats &block_stats,
                         const ir::Env &args, const sim::GpuSpec &spec,
                         const sim::PerfTraits &traits,
                         const std::string &engine) const
{
    KernelProfile out;
    out.kernel = kernel_.name;
    out.engine = engine;
    out.blocks_profiled = blocks_;
    out.instructions = rows_;
    out.totals = attributedTotals();
    out.latency =
        sim::estimateLatency(kernel_, block_stats, args, spec, traits);
    out.bound = classifyBound(out.latency);

    // Roofline verdict: block flops (2 per fma) per global byte moved,
    // against the spec's tensor-core/DRAM ridge point.
    const double flops = static_cast<double>(block_stats.mma_flops) +
                         2.0 * static_cast<double>(block_stats.simt_fma);
    const double bytes =
        static_cast<double>(block_stats.global_load_bytes +
                            block_stats.global_store_bytes);
    out.arith_intensity = bytes > 0 ? flops / bytes : 0.0;
    out.ridge_flops_per_byte =
        spec.fp16_tc_tflops * 1e12 / (spec.dram_gbps * 1e9);
    out.memory_bound = out.arith_intensity < out.ridge_flops_per_byte;

    // ---- Attribute each LatencyBreakdown component over instructions.
    // An instruction's share of a component equals its share of that
    // component's weight in sim/timing.h. The DRAM/L2 model prices
    // per-tensor traffic, which has no per-instruction split, so memory
    // is shared by global bytes; cp_async_bytes are already included
    // in global_load_bytes at issue and must not count twice.
    auto mem_w = [](const sim::Counters &c) {
        return static_cast<double>(c.global_load_bytes +
                                   c.global_store_bytes);
    };

    double mem_total = 0, tc_total = 0, simt_total = 0, alu_total = 0,
           smem_total = 0, sync_total = 0;
    for (const InstrProfile &row : out.instructions) {
        mem_total += mem_w(row.counters);
        tc_total += sim::tcFlops(row.counters);
        simt_total += sim::simtFma(row.counters);
        alu_total += sim::aluOps(row.counters);
        smem_total += sim::smemBytes(row.counters);
        sync_total += sim::syncEvents(row.counters);
    }

    // Serialized time splits into the synchronization term (kSyncUs
    // per bar.sync / commit, attributable per instruction) and the
    // structural round-trip / pipeline-fill term, which belongs to the
    // main loop as a whole rather than to any one instruction.
    const double waves =
        sim::waveCount(out.latency.blocks,
                       out.latency.occupancy_blocks_per_sm, spec);
    double sync_us =
        sim::kSyncUs * sim::syncEvents(block_stats) * waves;
    sync_us = std::min(sync_us, out.latency.serial_us);
    const double structural_serial_us = out.latency.serial_us - sync_us;

    for (InstrProfile &row : out.instructions) {
        const sim::Counters &c = row.counters;
        if (mem_total > 0) {
            row.components.dram_us =
                out.latency.dram_us * mem_w(c) / mem_total;
            row.components.l2_us =
                out.latency.l2_us * mem_w(c) / mem_total;
        }
        if (tc_total > 0)
            row.components.tc_us =
                out.latency.tc_us * sim::tcFlops(c) / tc_total;
        if (simt_total > 0)
            row.components.simt_us =
                out.latency.simt_us * sim::simtFma(c) / simt_total;
        if (alu_total > 0)
            row.components.alu_us =
                out.latency.alu_us * sim::aluOps(c) / alu_total;
        if (smem_total > 0)
            row.components.smem_us =
                out.latency.smem_us * sim::smemBytes(c) / smem_total;
        if (sync_total > 0)
            row.components.serial_us =
                sync_us * sim::syncEvents(c) / sync_total;
    }

    // ---- Region rollups and classification.
    for (int r = 0; r < kNumRegions; ++r)
        out.regions[static_cast<size_t>(r)].region =
            static_cast<Region>(r);
    for (const InstrProfile &row : out.instructions) {
        RegionProfile &reg =
            out.regions[static_cast<size_t>(row.region)];
        reg.instructions += 1;
        reg.executions += row.executions;
        reg.counters.add(row.counters);
        reg.components.add(row.components);
    }
    const size_t main_idx = static_cast<size_t>(Region::kMainLoop);
    RegionProfile &structural_region =
        out.regions[main_idx].instructions > 0
            ? out.regions[main_idx]
            : out.regions[static_cast<size_t>(Region::kPrologue)];
    structural_region.components.serial_us += structural_serial_us;
    for (int r = 0; r < kNumRegions; ++r) {
        RegionProfile &reg = out.regions[static_cast<size_t>(r)];
        reg.bound = classify(reg.components);
    }
    return out;
}

// ------------------------------------------------------------------
// ProfileSink
// ------------------------------------------------------------------

ProfileSink &
ProfileSink::instance()
{
    // Leaked on purpose; see armFromEnv.
    static ProfileSink *sink = [] {
        auto *s = new ProfileSink();
        const std::string path =
            armFromEnv("TILUS_PROFILE", [] { instance().flush(); });
        if (!path.empty())
            s->enable(path);
        return s;
    }();
    return *sink;
}

void
ProfileSink::enable(const std::string &path)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        path_ = path;
        profiles_.clear();
    }
    enabled_.store(true, std::memory_order_relaxed);
}

void
ProfileSink::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    profiles_.clear();
    path_.clear();
}

void
ProfileSink::record(KernelProfile profile)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    profiles_[profile.kernel] = std::move(profile);
}

std::string
ProfileSink::document() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string o = "{";
    o += "\"build_info\":" + buildInfoJson();
    o += ",\"profiles\":[";
    bool first = true;
    for (const auto &[name, profile] : profiles_) {
        if (!first)
            o += ',';
        first = false;
        o += profile.toJson();
    }
    o += "],\"schema\":\"tilus-profile-v1\"}";
    o += '\n';
    return o;
}

bool
ProfileSink::flush()
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        path = path_;
    }
    return !path.empty() && writeDocument(path, document());
}

int64_t
ProfileSink::profileCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int64_t>(profiles_.size());
}

} // namespace obs
} // namespace tilus
