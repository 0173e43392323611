/**
 * @file
 * Analytical latency model combining a traced block's event counters with
 * a GPU specification. The model is deliberately structural: systems
 * differ only through the instruction streams they emit (bytes moved,
 * pipelining observed, cast strategy, shared-memory round trips) plus two
 * documented traits (occupancy pressure, per-iteration serialized work),
 * so relative results emerge from kernel structure rather than per-system
 * fudge factors.
 *
 * Components:
 *  - DRAM time: unique bytes per global tensor at DRAM bandwidth, re-read
 *    excess at L2 bandwidth (inter-block reuse model);
 *  - compute time: tensor-core flops, CUDA-core fma, dequant/cast ALU
 *    work, shared-memory traffic;
 *  - serialization: unpipelined kernels pay the DRAM round-trip latency
 *    every main-loop iteration (the Ladder failure mode of Figure 1(b));
 *    pipelined kernels overlap memory and compute (cp.async observed in
 *    flight across compute);
 *  - wave quantization and occupancy-scaled bandwidth for small grids.
 */
#pragma once

#include <algorithm>
#include <cmath>

#include "ir/expr.h"
#include "lir/lir.h"
#include "sim/gpu_spec.h"
#include "sim/stats.h"

namespace tilus {
namespace sim {

/** Documented structural traits of a kernel generator (see DESIGN.md). */
struct PerfTraits
{
    /** Occupancy multiplier < 1 models register/smem pressure. */
    double occupancy_factor = 1.0;

    /**
     * Extra serialized latency per main-loop iteration in microseconds
     * (e.g. a shared-memory layout-conversion round trip that sits on the
     * dependency chain of every iteration — Figure 1(a) step 4).
     */
    double per_iter_serial_us = 0.0;
};

/** Latency estimate with its component breakdown (microseconds). */
struct LatencyBreakdown
{
    double total_us = 0;
    double dram_us = 0;
    double l2_us = 0;
    double tc_us = 0;
    double simt_us = 0;
    double alu_us = 0;
    double smem_us = 0;
    double serial_us = 0;
    double launch_us = 0;
    bool pipelined = false;
    int64_t blocks = 0;
    double occupancy_blocks_per_sm = 0;
};

/// @name Cost-component weights over the additive counters.
/// estimateLatency prices each component from these; the kernel
/// profiler splits each component across instructions in proportion
/// to the same weights, so the two cannot drift apart.
/// @{

/** Tensor-core flops (tc_us). */
inline double
tcFlops(const Counters &c)
{
    return static_cast<double>(c.mma_flops);
}

/** CUDA-core fused multiply-adds (simt_us; 2 flops each). */
inline double
simtFma(const Counters &c)
{
    return static_cast<double>(c.simt_fma);
}

/** ALU-weighted op count (alu_us): element ops and vectorized casts
    cost 1, scalar casts 6, sub-byte bit extracts 4, and every global
    load/store instruction 2 for its address arithmetic. */
inline double
aluOps(const Counters &c)
{
    return static_cast<double>(c.alu_elt_ops) +
           1.0 * static_cast<double>(c.cast_vec_elems) +
           6.0 * static_cast<double>(c.cast_scalar_elems) +
           4.0 * static_cast<double>(c.bit_extract_ops) +
           2.0 * static_cast<double>(c.ldg_ops + c.stg_ops);
}

/** Shared-memory bytes moved (smem_us). */
inline double
smemBytes(const Counters &c)
{
    return static_cast<double>(c.smem_load_bytes + c.smem_store_bytes);
}

/** Synchronization events: barriers and cp.async commits. */
inline double
syncEvents(const Counters &c)
{
    return static_cast<double>(c.bar_syncs + c.cp_commits);
}

/** Serialized microseconds each synchronization event costs a block. */
constexpr double kSyncUs = 0.01;
/// @}

/** Number of waves @p blocks take at @p blocks_per_sm on @p spec. */
inline double
waveCount(int64_t blocks, double blocks_per_sm, const GpuSpec &spec)
{
    return std::ceil(static_cast<double>(blocks) /
                     std::max(1.0, blocks_per_sm * spec.num_sms));
}

/**
 * Estimate a kernel's latency on `spec` from one block's traced stats.
 *
 * @param kernel      lowered kernel (grid/main-loop/global shapes)
 * @param block_stats counters from tracing one representative block
 * @param args        bound parameter values (for grid/shape evaluation)
 * @param spec        target GPU
 * @param traits      structural generator traits
 */
LatencyBreakdown estimateLatency(const lir::Kernel &kernel,
                                 const SimStats &block_stats,
                                 const ir::Env &args, const GpuSpec &spec,
                                 const PerfTraits &traits = {});

} // namespace sim
} // namespace tilus
