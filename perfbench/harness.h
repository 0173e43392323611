/**
 * @file
 * Shared machinery of the repository benchmark: the wall clock, the
 * timed-loop helper, the result and metric collection that ends in the
 * one-line JSON summary, and the in-memory span tracer of traced runs.
 *
 * Two kinds of time are kept apart everywhere. *Host* time is the
 * benchmark process's own wall clock (steady_clock). *Modeled* time is
 * the simulated GPU's analytical latency or the serving simulator's
 * virtual clock: deterministic for a given seed, and the paper's result.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/** Host wall clock in seconds (monotonic). */
double nowS();

/** Compile-pool width every workload pins (recorded with each result). */
constexpr int kPoolWidth = 4;

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 3;

/** Command-line configuration of one run. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string work_dir;  ///< private scratch root inside the checkout
    /** TILUS_CACHE_DIR of the process: the kernel artifact store
        (kernels/) and tune database (tune/) every workload starts
        from empty. */
    std::string cache_dir;
    std::string trace_dir; ///< where traced runs write their span file
};

double median(std::vector<double> values);
/**
 * The fastest of a run's repetitions: host_s. On a shared host the same
 * deterministic repetition varies by up to 2x from interference alone
 * (other tenants' load shifts every few seconds); the fastest one is the
 * closest to the program's own cost and the steadiest from run to run.
 */
double fastest(const std::vector<double> &values);
/** Nearest-rank percentile, q in [0, 1]. */
double percentile(std::vector<double> values, double q);
double geomean(const std::vector<double> &values);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Remove every entry under @p dir, keeping (or creating) the directory. */
void clearDir(const std::string &dir);

/**
 * Repeat @p op at least @p min_reps (>= 1) times, and then for as long as
 * one more repetition of the mean duration so far still ends within
 * @p seconds of host time. Returns the per-repetition host durations.
 *
 * With @p rotate_cpus, repetition i runs with the calling thread pinned
 * to the i-th allowed CPU, round robin, and the affinity is restored at
 * the end. On a shared host one vCPU can stay slow for a whole run (a
 * busy neighbour on its core); rotating lets every run sample every
 * vCPU. Only for single-threaded operations: threads the operation
 * starts would inherit the one-CPU affinity.
 */
std::vector<double> timedLoop(double seconds, int min_reps,
                              const std::function<void()> &op,
                              bool rotate_cpus = false);

/** Set-up @p reps times; returns the median host duration. */
double timedSetup(int reps, const std::function<void()> &setup);

/**
 * Outcome of one run: operation counts, correctness failures, and the
 * named metrics that end up in the final JSON line.
 */
class Result
{
  public:
    void attempt(int64_t n = 1) { attempted_ += n; }

    /** Record one failed operation with a human-readable reason. */
    void fail(const std::string &why);

    /** Check @p ok; a false value counts as one failed operation. */
    void check(bool ok, const std::string &why)
    {
        if (!ok)
            fail(why);
    }

    void metric(const std::string &name, double value,
                const std::string &unit);

    int64_t attempted() const { return attempted_; }
    int64_t failed() const { return failed_; }
    const std::vector<std::string> &errors() const { return errors_; }

    /** success_rate: 1 - failed / attempted. */
    double successRate() const;

    /** Print one readable line per metric, then the JSON summary line. */
    void print() const;

  private:
    struct Metric
    {
        double value;
        std::string unit;
    };
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
    std::vector<std::string> errors_;
    std::vector<std::pair<std::string, Metric>> metrics_;
};

/**
 * The traced run's span recorder. Spans are kept in memory (one mutex-
 * guarded vector; pool workers record concurrently) and written once at
 * exit. Every span has a name "<layer>.<what>", host start/end, its
 * parent span (the caller, also across pool threads via ParentScope),
 * and the id of the operation it belongs to (a tune sweep, a launch, a
 * serving trace).
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = ""; ///< static storage (a literal or a table)
        double start = 0;
        double end = 0;
        int64_t id = 0;
        int64_t parent = -1;
        int64_t op = -1;
        uint64_t thread = 0;
    };

    /** Per-name rollup: count, summed duration, summed self time. */
    struct Rollup
    {
        int64_t count = 0;
        double total_s = 0;
        double self_s = 0;
    };

    /** Open a span; @p name must outlive the tracer. */
    int64_t begin(const char *name, int64_t op);
    void end(int64_t id);

    /** Rollups keyed by span name. Self time is a span's duration minus
        the union of the intervals its direct children cover. */
    std::map<std::string, Rollup> rollup() const;

    /** Share of [start, end] covered by the union of all layer spans
        (every span except the benchmark's own "bench.*" spans). */
    double coverage(double start, double end) const;

    /** Chrome trace-event JSON (loads in Perfetto / chrome://tracing);
        leaf spans under 20 us are left out of the file. */
    void write(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< indexed by span id
};

/** RAII span on @p tracer; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, int64_t op = -1);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return id_; }

  private:
    Tracer *tracer_;
    int64_t id_ = -1;
    int64_t saved_parent_ = -1;
    int64_t saved_op_ = -1;
};

/** Adopt @p parent / @p op as the calling thread's current span and
    operation (pool workers inherit their caller's span this way). */
class ParentScope
{
  public:
    ParentScope(int64_t parent, int64_t op);
    ~ParentScope();
    ParentScope(const ParentScope &) = delete;
    ParentScope &operator=(const ParentScope &) = delete;

  private:
    int64_t saved_parent_;
    int64_t saved_op_;
};

/** Per-layer metric values of a traced run, keyed by metric name. */
using LayerValues = std::map<std::string, double>;

/**
 * Fold span rollups into @p values: span "<layer>.<what>" adds its
 * summed duration to "<layer>.<what>_s" ("opt.<pass>" to
 * "opt.<pass>.s"), every autotune span's self time to autotune.self_s,
 * and the serving.run spans' self time to serving.self_s. Spans named
 * "bench.*" are the benchmark's own and are skipped.
 */
void addSpanTimes(const Tracer &tracer, LayerValues &values);

/**
 * Emit every per-layer metric of the benchmark, in a fixed order, from
 * @p values (0 where the workload does not use that layer).
 */
void emitLayerMetrics(const LayerValues &values, Result &result);

/** Deterministic input generator (64-bit Mersenne Twister, seeded). */
class InputRng
{
  public:
    explicit InputRng(uint64_t seed);
    uint64_t next();
    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);
    /** Uniform integer in [lo, hi]. */
    int64_t between(int64_t lo, int64_t hi);

  private:
    std::mt19937_64 engine_;
};

/** Mix a workload seed with a stream tag (independent input streams). */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

/// Workload entry points (one per workload; see README.md).
void runColdTune(const RunConfig &config, Result &result);
void runRetune(const RunConfig &config, Result &result);
void runKernelExec(const RunConfig &config, Result &result);
void runServe(const RunConfig &config, Result &result);

/**
 * Record the traced-run metrics every workload shares — trace_overhead
 * (traced wall / untraced wall of the same work) and layer_coverage
 * (share of [traced_start, traced_end] covered by layer spans) — and
 * write the span file.
 */
void traceSummary(const RunConfig &config, const Tracer &tracer,
                  double traced_start, double traced_end,
                  double untraced_wall_s, LayerValues &values);

} // namespace perfbench
