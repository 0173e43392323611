/**
 * @file
 * Event counters collected while executing (or tracing) a kernel on the
 * simulator. These are the inputs of the analytical timing model: bytes
 * moved per memory scope, coalescing sectors, tensor-core and CUDA-core
 * operation counts, synchronization counts, and the observed cp.async
 * pipelining structure.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>

namespace tilus {
namespace sim {

/**
 * The additive event counters: every field accumulates by += inside
 * leaf execution, so counts merge by summation and the kernel profiler
 * (obs/profile.h) can attribute each delta to one LIR instruction with
 * exact conservation. This list is the one place a counter is
 * declared; Counters, SimStats::merge, the autotuner's extrapolation,
 * the profiler's snapshot/delta and its JSON writer all expand it.
 * Non-additive state (maxima, flags, per-tensor maps) lives in
 * SimStats, not here.
 */
#define TILUS_SIM_COUNTERS(X)                                            \
    /* Global memory. */                                                 \
    X(global_load_bytes)                                                 \
    X(global_store_bytes)                                                \
    X(cp_async_bytes)                                                    \
    X(global_sectors) /* distinct 32B sectors per warp access */         \
    X(ldg_ops)                                                           \
    X(stg_ops)                                                           \
    X(bit_extract_ops) /* sub-byte fallback accesses */                  \
    /* Shared memory. */                                                 \
    X(smem_load_bytes)                                                   \
    X(smem_store_bytes)                                                  \
    X(lds_ops)                                                           \
    X(sts_ops)                                                           \
    X(ldmatrix_ops)                                                      \
    /* Compute. */                                                       \
    X(mma_ops)                                                           \
    X(mma_flops)                                                         \
    X(simt_fma)                                                          \
    X(alu_elt_ops)                                                       \
    X(cast_vec_elems)                                                    \
    X(cast_scalar_elems)                                                 \
    /* Synchronization. */                                               \
    X(bar_syncs)                                                         \
    X(cp_commits)

/** The additive counters of TILUS_SIM_COUNTERS, as one flat struct. */
struct Counters
{
#define TILUS_COUNTER_FIELD(f) int64_t f = 0;
    TILUS_SIM_COUNTERS(TILUS_COUNTER_FIELD)
#undef TILUS_COUNTER_FIELD

    void
    add(const Counters &other)
    {
#define TILUS_COUNTER_ADD(f) f += other.f;
        TILUS_SIM_COUNTERS(TILUS_COUNTER_ADD)
#undef TILUS_COUNTER_ADD
    }

    /** Accumulate (after - before), the delta over one leaf. */
    void
    addDelta(const Counters &before, const Counters &after)
    {
#define TILUS_COUNTER_DELTA(f) f += after.f - before.f;
        TILUS_SIM_COUNTERS(TILUS_COUNTER_DELTA)
#undef TILUS_COUNTER_DELTA
    }

    bool
    operator==(const Counters &other) const
    {
#define TILUS_COUNTER_EQ(f)                                              \
    if (f != other.f)                                                    \
        return false;
        TILUS_SIM_COUNTERS(TILUS_COUNTER_EQ)
#undef TILUS_COUNTER_EQ
        return true;
    }
};

#define TILUS_COUNTER_ONE(f) +1
/** Every int64_t in Counters must come from the list. */
static_assert(sizeof(Counters) ==
                  (0 TILUS_SIM_COUNTERS(TILUS_COUNTER_ONE)) *
                      sizeof(int64_t),
              "declare additive counters in TILUS_SIM_COUNTERS only");
#undef TILUS_COUNTER_ONE

/** Counters for one traced/executed region (usually one thread block). */
struct SimStats : Counters
{
    /// Per-global-tensor read traffic (for the L2 reuse model).
    std::map<int, int64_t> load_bytes_by_global;
    std::map<int, int64_t> store_bytes_by_global;

    // Pipelining structure.
    int max_groups_in_flight = 0;
    bool overlapped = false; ///< copies stayed in flight across compute

    void
    merge(const SimStats &other)
    {
        add(other);
        for (const auto &[id, bytes] : other.load_bytes_by_global)
            load_bytes_by_global[id] += bytes;
        for (const auto &[id, bytes] : other.store_bytes_by_global)
            store_bytes_by_global[id] += bytes;
        max_groups_in_flight =
            std::max(max_groups_in_flight, other.max_groups_in_flight);
        overlapped = overlapped || other.overlapped;
    }
};

} // namespace sim
} // namespace tilus
