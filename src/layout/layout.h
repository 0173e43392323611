/**
 * @file
 * The algebraic layout system of Tilus (paper Sections 4 and 5).
 *
 * A layout describes how the elements of a register tile are distributed
 * across the threads of a thread block: it is a function f(t, i) mapping a
 * thread index t and a thread-local element index i to the logical index of
 * the tile element held there.
 *
 * Layouts use the unified representation of Section 5: each tile dimension
 * is split into sub-dimensions ("modes"); each mode is assigned either to
 * the spatial (thread) axis or to the local (per-thread storage) axis; the
 * ravel order of the spatial and local mode lists fixes the function.
 *
 * The two primitive layouts are local(n1,...,nk) — all elements in one
 * thread — and spatial(n1,...,nk) — one element per thread (Section 4.1).
 * Complex layouts are built with the Kronecker product (Section 4.2),
 * written here as operator*:
 *
 *     auto mma_c = local(2, 1) * spatial(8, 4) * local(1, 2);
 *
 * The product is associative but not commutative, and unified-representation
 * layouts are closed under it. Division (the inverse of the product) is used
 * by instruction selection to test whether a layout can be tiled by a
 * hardware atom (e.g. ldmatrix, mma fragments).
 *
 * Slot tables. Because every logical coordinate is linear in the mode
 * digits, the layout function splits into a thread part and a local part,
 *
 *     f(t, i)[d] = fwd_thread[d][t] + fwd_local[d][i],
 *
 * and so does its inverse: thread t holds element x iff
 * sum_d inv_thread[d][x_d] == mask[t], where mask[t] is t with its replica
 * digits zeroed, and then x sits in local slot sum_d inv_local[d][x_d].
 * SlotTable builds these tables once, in O(rank * (threads + locals +
 * sum(shape))), so lowering answers "which slot of thread t holds x" with
 * a few table reads and no allocation.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tilus {

/** A distributed register-tile layout in the unified representation. */
class Layout
{
  public:
    /** The empty (rank-0, single-thread, single-element) layout. */
    Layout() = default;

    /**
     * Construct from the unified representation.
     *
     * @param shape          logical tile shape
     * @param mode_shape     concatenated sub-dimension sizes, dimension by
     *                       dimension (most-significant sub-dim first)
     * @param mode_dim       owning dimension of each mode (non-decreasing)
     * @param spatial_modes  mode indices raveled into the thread index
     *                       (most-significant first)
     * @param local_modes    mode indices raveled into the local index
     */
    static Layout make(std::vector<int64_t> shape,
                       std::vector<int64_t> mode_shape,
                       std::vector<int> mode_dim,
                       std::vector<int> spatial_modes,
                       std::vector<int> local_modes,
                       std::string label = "");

    /// @name Primitive layouts (Section 4.1).
    /// @{
    /** All shape elements stored in a single thread, row-major order. */
    static Layout makeLocal(const std::vector<int64_t> &shape);
    /** One element per thread, threads in row-major order. */
    static Layout makeSpatial(const std::vector<int64_t> &shape);
    /** Column-major counterpart of makeLocal. */
    static Layout makeColumnLocal(const std::vector<int64_t> &shape);
    /** Column-major counterpart of makeSpatial. */
    static Layout makeColumnSpatial(const std::vector<int64_t> &shape);

    /**
     * Replicated-thread layout: @p copies threads all hold the same data.
     * A replica mode contributes to the thread index but to no logical
     * dimension (mode_dim == -1); it is the stride-0 concept needed for
     * multi-warp operand sharing and sub-channel scale broadcast. The
     * resulting layout has shape all-ones of the given rank.
     */
    static Layout makeReplica(int rank, int64_t copies);
    /// @}

    /// @name Unified representation accessors (Section 5).
    /// @{
    const std::vector<int64_t> &shape() const { return shape_; }
    const std::vector<int64_t> &modeShape() const { return mode_shape_; }
    const std::vector<int> &modeDim() const { return mode_dim_; }
    const std::vector<int> &spatialModes() const { return spatial_modes_; }
    const std::vector<int> &localModes() const { return local_modes_; }
    /** Provenance label ("" when built directly from make); display
        only, but serialized so a cached kernel prints identically. */
    const std::string &label() const { return label_; }
    /// @}

    int rank() const { return static_cast<int>(shape_.size()); }

    /** Replication factor: how many threads hold each element (>= 1). */
    int64_t replication() const;

    /** True when the layout has no replica modes. */
    bool isBijective() const { return replication() == 1; }

    /** Number of threads the tile is distributed over. */
    int64_t numThreads() const;

    /** Number of elements stored by each thread. */
    int64_t localsPerThread() const;

    /** Total number of tile elements. */
    int64_t numel() const;

    /**
     * Forward map: logical index -> (thread, local).
     * Inverse of logicalIndexOf.
     */
    std::pair<int64_t, int64_t>
    threadLocalOf(const std::vector<int64_t> &index) const;

    /** Layout function f(t, i): logical index held by (thread, local). */
    std::vector<int64_t> logicalIndexOf(int64_t thread, int64_t local) const;

    /**
     * Kronecker product (Section 4.2): each element of *this becomes a tile
     * with layout @p other. Associative; not commutative.
     */
    Layout product(const Layout &other) const;

    /**
     * Division: if *this == f (x) other for some layout f, return f.
     * Returns nullopt when no such quotient exists.
     */
    std::optional<Layout> dividedBy(const Layout &other) const;

    /** True when dividedBy(@p other) succeeds. */
    bool divisibleBy(const Layout &other) const;

    /**
     * Canonical form: unit modes dropped and adjacent mergeable modes
     * fused. Canonicalization preserves the layout function.
     */
    Layout canonicalized() const;

    /**
     * Functional equivalence: same shape and identical layout function
     * (checked by enumeration over all (thread, local) pairs).
     */
    bool equivalent(const Layout &other) const;

    /** Structural equality of canonical forms. */
    bool operator==(const Layout &other) const;
    bool operator!=(const Layout &other) const { return !(*this == other); }

    /**
     * Provenance string when built from primitives/products, e.g.
     * "local(2, 1).spatial(8, 4).local(1, 2)"; falls back to the unified
     * representation.
     */
    std::string toString() const;

    /** The unified-representation string of Section 5 (Figure 6). */
    std::string unifiedString() const;

  private:
    void validate() const;

    std::vector<int64_t> shape_;
    std::vector<int64_t> mode_shape_;
    std::vector<int> mode_dim_;
    std::vector<int> spatial_modes_;
    std::vector<int> local_modes_;
    std::string label_;
};

/**
 * Forward and inverse slot tables of one layout (see the file comment):
 * allocation-free, replication-aware slot queries.
 */
class SlotTable
{
  public:
    explicit SlotTable(const Layout &layout);

    int64_t numThreads() const { return threads_; }
    int64_t localsPerThread() const { return locals_; }

    /** Coordinate @p dim of f(thread, local); both must be in range. */
    int64_t
    logical(int64_t thread, int64_t local, int dim) const
    {
        return fwd_thread_[dim * threads_ + thread] +
               fwd_local_[dim * locals_ + local];
    }

    /**
     * The local slot of the element at @p logical (rank coordinates) in
     * @p thread's storage, or -1 when that thread does not hold it.
     * @p thread must be in range; out-of-range coordinates are not held.
     */
    int64_t
    slotIn(int64_t thread, const int64_t *logical) const
    {
        int64_t owner = 0, slot = 0;
        for (size_t d = 0; d < shape_.size(); ++d) {
            const int64_t x = logical[d];
            if (x < 0 || x >= shape_[d])
                return -1;
            owner += inv_thread_[inv_offset_[d] + x];
            slot += inv_local_[inv_offset_[d] + x];
        }
        return owner == mask_[thread] ? slot : -1;
    }

  private:
    int64_t threads_ = 1;
    int64_t locals_ = 1;
    std::vector<int64_t> shape_;
    std::vector<int64_t> fwd_thread_; ///< [dim][thread]
    std::vector<int64_t> fwd_local_;  ///< [dim][local]
    std::vector<int64_t> mask_;       ///< [thread], replica digits zeroed
    std::vector<int64_t> inv_offset_; ///< start of dim's inverse rows
    std::vector<int64_t> inv_thread_; ///< [dim][coordinate]
    std::vector<int64_t> inv_local_;  ///< [dim][coordinate]
};

/** Kronecker product, paper notation f.g ("layout composition"). */
inline Layout
operator*(const Layout &a, const Layout &b)
{
    return a.product(b);
}

/// @name Variadic primitive constructors matching the paper's syntax.
/// @{
template <typename... Ints>
Layout
local(Ints... ns)
{
    return Layout::makeLocal({static_cast<int64_t>(ns)...});
}

template <typename... Ints>
Layout
spatial(Ints... ns)
{
    return Layout::makeSpatial({static_cast<int64_t>(ns)...});
}

template <typename... Ints>
Layout
columnLocal(Ints... ns)
{
    return Layout::makeColumnLocal({static_cast<int64_t>(ns)...});
}

template <typename... Ints>
Layout
columnSpatial(Ints... ns)
{
    return Layout::makeColumnSpatial({static_cast<int64_t>(ns)...});
}

/** The paper also calls local "repeat" in instruction-selection contexts. */
template <typename... Ints>
Layout
repeat(Ints... ns)
{
    return Layout::makeLocal({static_cast<int64_t>(ns)...});
}

/** Rank-@p rank layout replicating its tile over @p copies threads. */
inline Layout
replicaSpatial(int rank, int64_t copies)
{
    return Layout::makeReplica(rank, copies);
}
/// @}

} // namespace tilus
