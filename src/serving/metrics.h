/**
 * @file
 * Aggregated serving metrics: the workload-level numbers (TTFT, TPOT,
 * end-to-end latency tails, throughput, goodput, queue/batch occupancy)
 * that Sections 9.4-9.5-style end-to-end evaluations report, plus a
 * line-oriented JSON serialization so benchmark sweeps can be recorded
 * and diffed across PRs (see bench/bench_serving.cc and
 * BENCH_serving.json).
 *
 * Latency distributions are held in obs::QuantileSketch — accumulated
 * incrementally as requests finish, O(1) per request, no per-request
 * vectors — and per-window occupancy/throughput history in an
 * obs::TimeSeries (the report's "series" block). Both are mergeable:
 * ServingReport::merge folds two replica reports into one fleet
 * report, the primitive ROADMAP item 2's cluster router builds on.
 * summarize() stays as the exact-reference path (sorts once) the
 * sketch is tested against.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/sketch.h"
#include "obs/timeseries.h"
#include "serving/scheduler.h"
#include "support/percentile.h"

namespace tilus {
namespace serving {

/** Mean + tail summary of one latency distribution (milliseconds). */
struct LatencySummary
{
    int64_t count = 0;
    double mean = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
};

/** Summarize a sample set (ms) into mean and interpolated tails —
    the exact path: one sort, then interpolated order statistics. */
inline LatencySummary
summarize(const std::vector<double> &samples)
{
    LatencySummary s;
    s.count = static_cast<int64_t>(samples.size());
    s.mean = meanOf(samples);
    std::vector<double> sorted(samples);
    std::sort(sorted.begin(), sorted.end());
    s.p50 = percentileOfSorted(sorted, 50);
    s.p95 = percentileOfSorted(sorted, 95);
    s.p99 = percentileOfSorted(sorted, 99);
    return s;
}

/** Summary of a sketch: exact count/mean, sketch-estimated tails
    (within the sketch's relative-error bound of the exact values). */
LatencySummary summarizeSketch(const obs::QuantileSketch &sketch);

/** The full result of one Simulator::run. */
struct ServingReport
{
    // Identity of the run (filled by the harness, free-form).
    std::string scheduler;
    std::string system;
    std::string model;
    std::string wdtype;
    double rate_rps = 0;
    uint64_t seed = 0;

    // Volume.
    int64_t total_requests = 0;
    int64_t completed = 0;
    int64_t rejected = 0;   ///< demand exceeded capacity outright
    int64_t failed = 0;     ///< step-fault retry budget exhausted
    int64_t retries = 0;    ///< faulted steps that were re-queued
    int64_t injected_faults = 0; ///< engine-step faults injected this run
    int64_t met_slo = 0;    ///< completions inside their SLO (or no SLO)
    int64_t prompt_tokens = 0;  ///< prompt tokens of completed requests
    int64_t output_tokens = 0;  ///< tokens generated for completed requests
    int64_t prefill_steps = 0;
    int64_t decode_steps = 0;
    int64_t preemptions = 0; ///< running -> queued evictions (paged mode)

    // Time and rates (virtual clock).
    double makespan_ms = 0;       ///< last completion time
    double throughput_tok_s = 0;  ///< output tokens per second
    double request_per_s = 0;     ///< completed requests per second
    double goodput_req_s = 0;     ///< completions meeting their SLO, per s
    /** completed / (completed + failed): the fraction of non-rejected
        terminal requests that were actually served. 1.0 when no request
        reached a terminal serving state (vacuously available). */
    double availability = 1.0;

    // Distributions (ms over completed requests): the summaries are
    // derived from the sketches (exact count/mean, tails within the
    // sketch's relative-error bound).
    LatencySummary ttft;       ///< arrival -> first output token
    LatencySummary tpot;       ///< mean inter-token time after the first
    LatencySummary latency;    ///< arrival -> completion
    LatencySummary queue_wait; ///< arrival -> admission

    // The mergeable per-metric sketches behind the summaries (not
    // serialized in toJson; merge() folds them across replicas).
    obs::QuantileSketch ttft_sketch;
    obs::QuantileSketch tpot_sketch;
    obs::QuantileSketch latency_sketch;
    obs::QuantileSketch queue_wait_sketch;

    // Per-window history over the virtual clock (the "series" JSON
    // block): throughput_tok_s, queue_depth, decode_batch,
    // kv_used_tokens, preemptions per fixed window.
    obs::TimeSeries series;

    // Occupancy.
    double mean_queue_depth = 0;  ///< time-weighted queued requests
    int64_t max_queue_depth = 0;
    double mean_decode_batch = 0; ///< decode-step occupancy
    std::vector<int64_t> batch_histogram; ///< index = decode batch size

    // KV-cache occupancy (both accounting modes; see kv_pool.h).
    int64_t kv_page_tokens = 0;     ///< page size; 0 = reservation mode
    int64_t kv_capacity_tokens = 0; ///< pool size the run was bounded by
    double mean_kv_used_tokens = 0; ///< time-weighted materialized entries
    int64_t peak_kv_used_tokens = 0;
    double mean_kv_used_frac = 0;   ///< mean_kv_used_tokens / capacity

    // Per-request lifecycle, in trace order (not serialized; used by
    // tests and trace printers). Empty when the run used
    // SimOptions::keep_request_states = false (sketch-only mode, the
    // O(1)-memory path for 10^5+ request traces).
    std::vector<RequestState> requests;

    /**
     * Fold @p other (another replica's report over a disjoint request
     * shard) into this one, producing a fleet-level report:
     *  - identity fields keep this report's values (callers label the
     *    fleet); rate_rps adds (total offered load);
     *  - volume counters, token counts, steps, preemptions, failures,
     *    retries, and injected faults add; availability is recomputed
     *    from the pooled completed/failed totals;
     *  - sketches and series merge, summaries are re-derived, so the
     *    merged percentiles equal a sketch over the pooled samples;
     *  - makespan is the max (replicas run concurrently); throughput /
     *    request / goodput rates are recomputed from pooled totals
     *    over that makespan;
     *  - time-weighted means (queue depth, KV tokens) are re-weighted
     *    by each report's makespan and renormalized to the merged one
     *    (fleet-total time-average); mean_decode_batch is re-weighted
     *    by decode steps (per-step mean);
     *  - kv capacity / peak / max_queue_depth add (fleet capacity;
     *    peaks add as a conservative upper bound since per-replica
     *    peaks need not coincide); batch_histogram adds element-wise;
     *  - requests vectors concatenate (when kept).
     */
    void merge(const ServingReport &other);

    std::string toJson() const;
};

/**
 * The incremental metric accumulator the simulator event loop feeds:
 * per-finish sketch updates, per-step occupancy integrals and series
 * windows — O(1) state per request, so report memory is flat no
 * matter how many requests a trace carries. finalize() derives every
 * aggregate ServingReport field from the accumulated state.
 */
class MetricTracker
{
  public:
    explicit MetricTracker(double series_window_ms);

    /** One engine step: [t0, t0+step_ms), with the queue depth and KV
        occupancy in effect over the step, the decode batch size (0
        for a prefill step), and tokens emitted by the step. */
    void onStep(double t0_ms, double step_ms, int64_t queue_depth,
                int64_t kv_used_tokens, int64_t decode_batch,
                int64_t tokens_out);

    /** One preemption at @p t_ms. */
    void onPreempt(double t_ms);

    /** A request reached Phase::kFinished at @p now_ms. */
    void onFinish(const RequestState &state, double now_ms);

    /** Derive report aggregates (summaries, rates, means, series) from
        the accumulated state; @p busy_end_ms is the clock after the
        last engine step (the makespan). */
    void finalize(ServingReport &report, double busy_end_ms);

  private:
    // Latency sketches at obs::kDefaultSketchAccuracy (1% relative error).
    obs::QuantileSketch ttft_;
    obs::QuantileSketch tpot_;
    obs::QuantileSketch latency_;
    obs::QuantileSketch queue_wait_;
    obs::TimeSeries series_;
    int ch_throughput_ = -1;
    int ch_queue_depth_ = -1;
    int ch_decode_batch_ = -1;
    int ch_kv_used_ = -1;
    int ch_preempt_ = -1;

    int64_t met_slo_ = 0;
    int64_t prompt_tokens_ = 0;
    int64_t output_tokens_ = 0;
    double queue_depth_integral_ = 0;
    double kv_used_integral_ = 0;
    double decode_batch_sum_ = 0;
    int64_t decode_steps_ = 0;
};

} // namespace serving
} // namespace tilus
