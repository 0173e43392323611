/**
 * @file
 * The process-wide metrics registry: named counters, gauges, and
 * log2-bucketed histograms shared by every subsystem (kernel-cache
 * hit/miss, tune-db warm/cold, compile-pool depth, micro-op decodes,
 * serving preemptions, ...).
 *
 * Fast path: a metric handle is an atomic the caller keeps a reference
 * to (registration returns a stable reference; look it up once via a
 * function-local static). Updates are single relaxed atomic operations
 * — lock-free, safe from any thread, and cheap enough for per-run
 * bookkeeping on hot simulator paths. The registry mutex is only taken
 * on first registration and when dumping.
 *
 * Dumps: toJson() (sorted keys, machine-diffable) and toPrometheus()
 * (text exposition format). Setting TILUS_METRICS=<path> writes a dump
 * at process exit (armed through obs/sink.h) — a ".prom" suffix selects
 * the Prometheus format, anything else JSON.
 *
 * Naming contract: metric names are Prometheus-compatible
 * ([a-z_][a-z0-9_]*), unprefixed here; dumps prepend "tilus_".
 * Counters end in "_total". See src/obs/README.md for the author
 * contract.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace tilus {
namespace obs {

/** A monotonically increasing integer metric. */
class Counter
{
  public:
    void
    add(int64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    int64_t value() const { return value_.load(std::memory_order_relaxed); }

    void zero() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/** A settable point-in-time value. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    void
    add(double d)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + d,
                                             std::memory_order_relaxed)) {
        }
    }

    double value() const { return value_.load(std::memory_order_relaxed); }

    void zero() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0};
};

/**
 * A histogram over power-of-two buckets: observation v lands in the
 * first bucket whose upper bound 2^i satisfies v <= 2^i (v <= 1 lands
 * in bucket 0; anything larger than 2^62 in the last). Buckets, count,
 * and sum are individually atomic — concurrent observes never lose an
 * event, though a dump racing an observe may see count and sum one
 * event apart (acceptable for diagnostics).
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 64;

    void
    observe(double v)
    {
        int b = 0;
        double bound = 1.0;
        while (b + 1 < kBuckets && v > bound) {
            bound *= 2.0;
            ++b;
        }
        buckets_[b].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        double cur = sum_.load(std::memory_order_relaxed);
        while (!sum_.compare_exchange_weak(cur, cur + v,
                                           std::memory_order_relaxed)) {
        }
    }

    int64_t count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const { return sum_.load(std::memory_order_relaxed); }

    int64_t
    bucketCount(int i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    /** Upper bound of bucket @p i (2^i). */
    static double bucketBound(int i);

    /**
     * Estimated @p pct-th percentile (0..100) by linear interpolation
     * inside the power-of-two bucket holding that rank (samples
     * assumed uniform within a bucket; a lone sample reports the
     * bucket midpoint). Coarse — bounded by the bucket width, i.e. a
     * factor of 2 — but free, derived from counts already kept. The
     * JSON and Prometheus dumps expose p50/p95/p99 from this. For
     * relative-error-bounded quantiles use obs::QuantileSketch.
     */
    double quantile(double pct) const;

    void
    zero()
    {
        for (auto &b : buckets_)
            b.store(0, std::memory_order_relaxed);
        count_.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<int64_t> buckets_[kBuckets] = {};
    std::atomic<int64_t> count_{0};
    std::atomic<double> sum_{0};
};

/** The process-wide metric store (see file header). */
class Registry
{
  public:
    /** The process singleton (TILUS_METRICS exit dump armed here). */
    static Registry &instance();

    Registry() = default;

    /** Get-or-create; the returned reference is stable for the
        registry's lifetime. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Value of a registered counter, 0 when absent (bench summaries). */
    int64_t counterValue(const std::string &name) const;

    /** Value of a registered gauge, 0 when absent. */
    double gaugeValue(const std::string &name) const;

    /** All metrics as one JSON object (names sorted). */
    std::string toJson() const;

    /** Prometheus text exposition format ("tilus_" prefix added). */
    std::string toPrometheus() const;

    /** Write toPrometheus() when @p path ends in ".prom", else toJson();
        returns success (see writeDocument). */
    bool writeFile(const std::string &path) const;

    /** Zero every registered metric (handles stay valid). Tests only. */
    void zeroAllForTest();

  private:
    std::string exit_path_; ///< TILUS_METRICS; set once by instance()
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace obs
} // namespace tilus
