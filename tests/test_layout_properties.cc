/**
 * @file
 * Property-based tests of the layout algebra over randomly generated
 * layouts, including ones built directly in the unified representation
 * (not just primitive products): forward/inverse bijection, product
 * definition identity, associativity with three random factors,
 * canonicalization soundness and idempotence, division as the inverse of
 * the product (including replicated factors on the dividend side),
 * closure of the unified representation, and the slot tables against a
 * brute-force search over the layout function.
 */
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "layout/layout.h"
#include "support/math_util.h"
#include "support/rng.h"

namespace tilus {
namespace {

/** Random unified-representation layout of the given rank. */
Layout
randomUnified(Rng &rng, int rank)
{
    // Build per-dim mode lists with small sizes, then deal the modes to
    // the spatial/local order lists in random order.
    std::vector<int64_t> shape(rank, 1);
    std::vector<int64_t> mode_shape;
    std::vector<int> mode_dim;
    for (int d = 0; d < rank; ++d) {
        int parts = static_cast<int>(rng.nextRange(1, 3));
        for (int p = 0; p < parts; ++p) {
            int64_t size = rng.nextRange(1, 4);
            shape[d] *= size;
            mode_shape.push_back(size);
            mode_dim.push_back(d);
        }
    }
    std::vector<int> order(mode_shape.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    // Fisher-Yates shuffle with our deterministic rng.
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    size_t cut = rng.nextBelow(order.size() + 1);
    std::vector<int> spatial(order.begin(), order.begin() + cut);
    std::vector<int> local(order.begin() + cut, order.end());
    return Layout::make(shape, mode_shape, mode_dim, spatial, local);
}

TEST(LayoutProperty, UnifiedForwardInverseBijection)
{
    Rng rng(101);
    for (int trial = 0; trial < 100; ++trial) {
        Layout layout = randomUnified(rng, 2);
        std::set<std::pair<int64_t, int64_t>> seen;
        for (int64_t i0 = 0; i0 < layout.shape()[0]; ++i0) {
            for (int64_t i1 = 0; i1 < layout.shape()[1]; ++i1) {
                auto [t, l] = layout.threadLocalOf({i0, i1});
                ASSERT_TRUE(seen.insert({t, l}).second)
                    << layout.unifiedString();
                auto idx = layout.logicalIndexOf(t, l);
                ASSERT_EQ(idx[0], i0);
                ASSERT_EQ(idx[1], i1);
            }
        }
    }
}

TEST(LayoutProperty, ProductDefinitionIdentity)
{
    // h = f*g must satisfy h(t, i) = f(t/Tg, i/Ng) * Sg + g(t%Tg, i%Ng)
    // for all random unified f, g.
    Rng rng(202);
    for (int trial = 0; trial < 60; ++trial) {
        Layout f = randomUnified(rng, 2);
        Layout g = randomUnified(rng, 2);
        if (!f.isBijective() || !g.isBijective())
            continue;
        Layout h = f * g;
        const int64_t tg = g.numThreads(), ng = g.localsPerThread();
        for (int64_t t = 0; t < h.numThreads(); ++t) {
            for (int64_t i = 0; i < h.localsPerThread(); ++i) {
                auto hi = h.logicalIndexOf(t, i);
                auto fi = f.logicalIndexOf(t / tg, i / ng);
                auto gi = g.logicalIndexOf(t % tg, i % ng);
                for (int d = 0; d < 2; ++d)
                    ASSERT_EQ(hi[d], fi[d] * g.shape()[d] + gi[d])
                        << f.unifiedString() << " x " << g.unifiedString();
            }
        }
    }
}

TEST(LayoutProperty, AssociativityOverUnifiedLayouts)
{
    Rng rng(303);
    for (int trial = 0; trial < 60; ++trial) {
        Layout f = randomUnified(rng, 2);
        Layout g = randomUnified(rng, 2);
        Layout h = randomUnified(rng, 2);
        ASSERT_TRUE(((f * g) * h).equivalent(f * (g * h)));
    }
}

TEST(LayoutProperty, CanonicalizationIsSoundAndIdempotent)
{
    Rng rng(404);
    for (int trial = 0; trial < 100; ++trial) {
        Layout layout = randomUnified(rng, 2);
        Layout canon = layout.canonicalized();
        ASSERT_TRUE(layout.equivalent(canon)) << layout.unifiedString();
        Layout twice = canon.canonicalized();
        ASSERT_EQ(canon.modeShape(), twice.modeShape());
        ASSERT_EQ(canon.spatialModes(), twice.spatialModes());
        ASSERT_EQ(canon.localModes(), twice.localModes());
    }
}

TEST(LayoutProperty, DivisionInvertsProduct)
{
    Rng rng(505);
    int succeeded = 0;
    for (int trial = 0; trial < 120; ++trial) {
        Layout f = randomUnified(rng, 2);
        Layout g = randomUnified(rng, 2);
        if (!g.isBijective())
            continue;
        Layout h = f * g;
        auto quotient = h.dividedBy(g);
        ASSERT_TRUE(quotient.has_value())
            << "h=" << h.unifiedString() << " g=" << g.unifiedString();
        ASSERT_TRUE(quotient->equivalent(f.canonicalized()));
        ++succeeded;
    }
    EXPECT_GT(succeeded, 60);
}

TEST(LayoutProperty, DivisionWithReplicatedDividend)
{
    // Multi-warp operand layouts divide by warp-level atoms with the
    // replica factor surviving into the quotient.
    Rng rng(606);
    for (int trial = 0; trial < 40; ++trial) {
        Layout f = randomUnified(rng, 2);
        Layout rep = replicaSpatial(2, rng.nextRange(2, 4));
        Layout g = randomUnified(rng, 2);
        if (!g.isBijective())
            continue;
        Layout h = (f * rep) * g;
        auto quotient = h.dividedBy(g);
        ASSERT_TRUE(quotient.has_value());
        ASSERT_EQ(quotient->replication(), rep.replication());
        ASSERT_EQ(quotient->numThreads(),
                  f.numThreads() * rep.replication());
    }
}

TEST(LayoutProperty, ReplicatedThreadsAgree)
{
    // All replicas of a thread hold exactly the same logical elements.
    Rng rng(707);
    for (int trial = 0; trial < 40; ++trial) {
        Layout base = randomUnified(rng, 2);
        if (!base.isBijective())
            continue;
        int64_t copies = rng.nextRange(2, 4);
        Layout layout = base * replicaSpatial(2, copies);
        for (int64_t t = 0; t < base.numThreads(); ++t) {
            for (int64_t r = 1; r < copies; ++r) {
                for (int64_t i = 0; i < layout.localsPerThread(); ++i) {
                    ASSERT_EQ(layout.logicalIndexOf(t * copies, i),
                              layout.logicalIndexOf(t * copies + r, i));
                }
            }
        }
    }
}

TEST(LayoutProperty, ThreadsTimesLocalsEqualsNumelTimesReplication)
{
    Rng rng(808);
    for (int trial = 0; trial < 60; ++trial) {
        Layout base = randomUnified(rng, 2);
        Layout layout = rng.nextBelow(2)
                            ? base * replicaSpatial(2, rng.nextRange(2, 3))
                            : base;
        ASSERT_EQ(layout.numThreads() * layout.localsPerThread(),
                  layout.numel() * layout.replication());
    }
}

TEST(LayoutProperty, RankThreeLayoutsWork)
{
    Rng rng(909);
    for (int trial = 0; trial < 40; ++trial) {
        Layout f = randomUnified(rng, 3);
        Layout g = randomUnified(rng, 3);
        Layout h = f * g;
        ASSERT_EQ(h.rank(), 3);
        for (int64_t t = 0; t < h.numThreads(); ++t)
            for (int64_t i = 0; i < h.localsPerThread(); ++i) {
                auto idx = h.logicalIndexOf(t, i);
                if (h.isBijective()) {
                    auto [t2, i2] = h.threadLocalOf(idx);
                    ASSERT_EQ(t2, t);
                    ASSERT_EQ(i2, i);
                }
            }
    }
}

/** Rank-@p rank layout for the slot-table checks: a unified layout,
    optionally with a replica factor before, after or between factors. */
Layout
randomTableLayout(Rng &rng, int rank)
{
    Layout base = randomUnified(rng, rank);
    switch (rng.nextBelow(4)) {
      case 0:
        return base;
      case 1:
        return replicaSpatial(rank, rng.nextRange(2, 3)) * base;
      case 2:
        return base * replicaSpatial(rank, rng.nextRange(2, 3));
      default:
        return base * replicaSpatial(rank, rng.nextRange(2, 3)) *
               randomUnified(rng, rank);
    }
}

TEST(LayoutProperty, SlotTablesMatchBruteForce)
{
    Rng rng(1111);
    const int trials = 150;
    int checked = 0;
    for (int trial = 0; trial < trials; ++trial) {
        const int rank = 1 + trial % 3;
        Layout layout = randomTableLayout(rng, rank);
        const int64_t threads = layout.numThreads();
        const int64_t locals = layout.localsPerThread();
        const int64_t numel = layout.numel();
        if (threads * numel > (1 << 18))
            continue; // bound the brute force's (thread, element) sweep
        ++checked;
        const SlotTable table(layout);
        ASSERT_EQ(table.numThreads(), threads);
        ASSERT_EQ(table.localsPerThread(), locals);
        std::vector<int64_t> brute(numel);
        for (int64_t t = 0; t < threads; ++t) {
            // Forward: the tables reproduce f(t, i); the brute-force
            // inverse records which slot of t holds each element.
            std::fill(brute.begin(), brute.end(), -1);
            for (int64_t i = 0; i < locals; ++i) {
                auto idx = layout.logicalIndexOf(t, i);
                for (int d = 0; d < rank; ++d)
                    ASSERT_EQ(table.logical(t, i, d), idx[d])
                        << layout.unifiedString() << " t=" << t
                        << " i=" << i << " d=" << d;
                brute[ravel(idx, layout.shape())] = i;
            }
            // Inverse: held-or-not and the slot agree for every element.
            for (int64_t x = 0; x < numel; ++x) {
                auto idx = unravel(x, layout.shape());
                ASSERT_EQ(table.slotIn(t, idx.data()), brute[x])
                    << layout.unifiedString() << " t=" << t
                    << " x=" << x;
            }
            // Coordinates outside the shape are never held.
            std::vector<int64_t> outside(rank, 0);
            for (int d = 0; d < rank; ++d) {
                outside[d] = layout.shape()[d];
                ASSERT_EQ(table.slotIn(t, outside.data()), -1);
                outside[d] = -1;
                ASSERT_EQ(table.slotIn(t, outside.data()), -1);
                outside[d] = 0;
            }
        }
    }
    EXPECT_GE(checked, trials * 3 / 4);
}

} // namespace
} // namespace tilus
