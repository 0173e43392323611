#include "serving/metrics.h"

#include <algorithm>
#include <sstream>

#include "obs/trace.h"
#include "support/error.h"

namespace tilus {
namespace serving {

namespace {

void
appendSummary(std::ostringstream &oss, const char *key,
              const LatencySummary &s)
{
    oss << "\"" << key << "\":{\"mean\":" << obs::jsonNum(s.mean)
        << ",\"p50\":" << obs::jsonNum(s.p50)
        << ",\"p95\":" << obs::jsonNum(s.p95)
        << ",\"p99\":" << obs::jsonNum(s.p99) << "}";
}

} // namespace

LatencySummary
summarizeSketch(const obs::QuantileSketch &sketch)
{
    LatencySummary s;
    s.count = sketch.count();
    s.mean = sketch.mean();
    s.p50 = sketch.quantile(50);
    s.p95 = sketch.quantile(95);
    s.p99 = sketch.quantile(99);
    return s;
}

void
ServingReport::merge(const ServingReport &other)
{
    const int64_t my_decode_steps = decode_steps;

    // Volume: disjoint shards add.
    rate_rps += other.rate_rps;
    total_requests += other.total_requests;
    completed += other.completed;
    rejected += other.rejected;
    failed += other.failed;
    retries += other.retries;
    injected_faults += other.injected_faults;
    met_slo += other.met_slo;
    prompt_tokens += other.prompt_tokens;
    output_tokens += other.output_tokens;
    prefill_steps += other.prefill_steps;
    decode_steps += other.decode_steps;
    preemptions += other.preemptions;

    // Time-weighted means renormalize from per-replica makespans to
    // the merged one (replicas run concurrently -> fleet makespan is
    // the max; the integrals add).
    const double merged_makespan =
        std::max(makespan_ms, other.makespan_ms);
    const double queue_integral = mean_queue_depth * makespan_ms +
                                  other.mean_queue_depth *
                                      other.makespan_ms;
    const double kv_integral = mean_kv_used_tokens * makespan_ms +
                               other.mean_kv_used_tokens *
                                   other.makespan_ms;
    const double batch_sum =
        mean_decode_batch * static_cast<double>(my_decode_steps) +
        other.mean_decode_batch *
            static_cast<double>(other.decode_steps);
    makespan_ms = merged_makespan;
    if (merged_makespan > 0) {
        throughput_tok_s = static_cast<double>(output_tokens) /
                           merged_makespan * 1000.0;
        request_per_s = static_cast<double>(completed) /
                        merged_makespan * 1000.0;
        goodput_req_s = static_cast<double>(met_slo) /
                        merged_makespan * 1000.0;
        mean_queue_depth = queue_integral / merged_makespan;
        mean_kv_used_tokens = kv_integral / merged_makespan;
    }
    if (decode_steps > 0)
        mean_decode_batch =
            batch_sum / static_cast<double>(decode_steps);
    availability = completed + failed > 0
                       ? static_cast<double>(completed) /
                             static_cast<double>(completed + failed)
                       : 1.0;

    // Distributions: merging the sketches yields exactly the sketch of
    // the pooled sample stream; re-derive the summaries from them.
    ttft_sketch.merge(other.ttft_sketch);
    tpot_sketch.merge(other.tpot_sketch);
    latency_sketch.merge(other.latency_sketch);
    queue_wait_sketch.merge(other.queue_wait_sketch);
    ttft = summarizeSketch(ttft_sketch);
    tpot = summarizeSketch(tpot_sketch);
    latency = summarizeSketch(latency_sketch);
    queue_wait = summarizeSketch(queue_wait_sketch);
    series.merge(other.series);

    // Occupancy: capacities add across replicas; peaks add as a
    // conservative upper bound (per-replica peaks need not coincide).
    max_queue_depth += other.max_queue_depth;
    if (batch_histogram.size() < other.batch_histogram.size())
        batch_histogram.resize(other.batch_histogram.size(), 0);
    for (size_t i = 0; i < other.batch_histogram.size(); ++i)
        batch_histogram[i] += other.batch_histogram[i];
    kv_capacity_tokens += other.kv_capacity_tokens;
    peak_kv_used_tokens += other.peak_kv_used_tokens;
    mean_kv_used_frac =
        kv_capacity_tokens > 0
            ? mean_kv_used_tokens /
                  static_cast<double>(kv_capacity_tokens)
            : 0.0;

    requests.insert(requests.end(), other.requests.begin(),
                    other.requests.end());
}

std::string
ServingReport::toJson() const
{
    std::ostringstream oss;
    oss << "{\"scheduler\":\"" << obs::jsonEscape(scheduler)
        << "\",\"system\":\"" << obs::jsonEscape(system)
        << "\",\"model\":\"" << obs::jsonEscape(model)
        << "\",\"wdtype\":\"" << obs::jsonEscape(wdtype)
        << "\",\"rate_rps\":" << obs::jsonNum(rate_rps)
        << ",\"seed\":" << seed << ",\"total_requests\":" << total_requests
        << ",\"completed\":" << completed << ",\"rejected\":" << rejected
        << ",\"failed\":" << failed << ",\"retries\":" << retries
        << ",\"injected_faults\":" << injected_faults
        << ",\"met_slo\":" << met_slo
        << ",\"prompt_tokens\":" << prompt_tokens
        << ",\"output_tokens\":" << output_tokens
        << ",\"prefill_steps\":" << prefill_steps
        << ",\"decode_steps\":" << decode_steps
        << ",\"preemptions\":" << preemptions
        << ",\"makespan_ms\":" << obs::jsonNum(makespan_ms)
        << ",\"throughput_tok_s\":" << obs::jsonNum(throughput_tok_s)
        << ",\"request_per_s\":" << obs::jsonNum(request_per_s)
        << ",\"goodput_req_s\":" << obs::jsonNum(goodput_req_s)
        << ",\"availability\":" << obs::jsonNum(availability) << ",";
    appendSummary(oss, "ttft_ms", ttft);
    oss << ",";
    appendSummary(oss, "tpot_ms", tpot);
    oss << ",";
    appendSummary(oss, "latency_ms", latency);
    oss << ",";
    appendSummary(oss, "queue_wait_ms", queue_wait);
    oss << ",\"mean_queue_depth\":" << obs::jsonNum(mean_queue_depth)
        << ",\"max_queue_depth\":" << max_queue_depth
        << ",\"mean_decode_batch\":" << obs::jsonNum(mean_decode_batch)
        << ",\"kv_page_tokens\":" << kv_page_tokens
        << ",\"kv_capacity_tokens\":" << kv_capacity_tokens
        << ",\"mean_kv_used_tokens\":" << obs::jsonNum(mean_kv_used_tokens)
        << ",\"peak_kv_used_tokens\":" << peak_kv_used_tokens
        << ",\"mean_kv_used_frac\":" << obs::jsonNum(mean_kv_used_frac)
        << ",\"batch_histogram\":[";
    for (size_t i = 0; i < batch_histogram.size(); ++i)
        oss << (i ? "," : "") << batch_histogram[i];
    oss << "],\"series\":" << series.toJson() << "}";
    return oss.str();
}

MetricTracker::MetricTracker(double series_window_ms)
{
    if (series_window_ms > 0) {
        series_ = obs::TimeSeries(series_window_ms);
        using Kind = obs::TimeSeries::Kind;
        ch_throughput_ =
            series_.channel("throughput_tok_s", Kind::kRatePerSec);
        ch_queue_depth_ = series_.channel("queue_depth", Kind::kMean);
        ch_decode_batch_ = series_.channel("decode_batch", Kind::kMean);
        ch_kv_used_ = series_.channel("kv_used_tokens", Kind::kMean);
        ch_preempt_ = series_.channel("preemptions", Kind::kCount);
    }
}

void
MetricTracker::onStep(double t0_ms, double step_ms, int64_t queue_depth,
                      int64_t kv_used_tokens, int64_t decode_batch,
                      int64_t tokens_out)
{
    queue_depth_integral_ += static_cast<double>(queue_depth) * step_ms;
    kv_used_integral_ += static_cast<double>(kv_used_tokens) * step_ms;
    if (decode_batch > 0) {
        decode_batch_sum_ += static_cast<double>(decode_batch);
        ++decode_steps_;
    }
    if (series_.enabled()) {
        const double t1 = t0_ms + step_ms;
        if (tokens_out > 0)
            series_.add(ch_throughput_, t0_ms,
                        static_cast<double>(tokens_out));
        series_.integrate(ch_queue_depth_, t0_ms, t1,
                          static_cast<double>(queue_depth));
        if (decode_batch > 0)
            series_.integrate(ch_decode_batch_, t0_ms, t1,
                              static_cast<double>(decode_batch));
        series_.integrate(ch_kv_used_, t0_ms, t1,
                          static_cast<double>(kv_used_tokens));
    }
}

void
MetricTracker::onPreempt(double t_ms)
{
    if (series_.enabled())
        series_.add(ch_preempt_, t_ms, 1.0);
}

void
MetricTracker::onFinish(const RequestState &state, double now_ms)
{
    const Request &request = state.request;
    prompt_tokens_ += request.prompt_tokens;
    output_tokens_ += state.generated_tokens;
    ttft_.add(state.first_token_ms - request.arrival_ms);
    latency_.add(now_ms - request.arrival_ms);
    queue_wait_.add(state.admitted_ms - request.arrival_ms);
    if (request.output_tokens > 1)
        tpot_.add((now_ms - state.first_token_ms) /
                  static_cast<double>(request.output_tokens - 1));
    if (request.slo_ms <= 0 || now_ms - request.arrival_ms <= request.slo_ms)
        ++met_slo_;
}

void
MetricTracker::finalize(ServingReport &report, double busy_end_ms)
{
    report.met_slo = met_slo_;
    report.prompt_tokens = prompt_tokens_;
    report.output_tokens = output_tokens_;
    report.ttft = summarizeSketch(ttft_);
    report.tpot = summarizeSketch(tpot_);
    report.latency = summarizeSketch(latency_);
    report.queue_wait = summarizeSketch(queue_wait_);
    report.ttft_sketch = std::move(ttft_);
    report.tpot_sketch = std::move(tpot_);
    report.latency_sketch = std::move(latency_);
    report.queue_wait_sketch = std::move(queue_wait_);
    // Makespan ends at the last engine step, not at a trailing idle
    // jump (e.g. to a late-arriving rejected request).
    report.makespan_ms = busy_end_ms;
    if (busy_end_ms > 0) {
        report.throughput_tok_s =
            static_cast<double>(report.output_tokens) / busy_end_ms *
            1000.0;
        report.request_per_s =
            static_cast<double>(report.completed) / busy_end_ms * 1000.0;
        report.goodput_req_s =
            static_cast<double>(met_slo_) / busy_end_ms * 1000.0;
        report.mean_queue_depth = queue_depth_integral_ / busy_end_ms;
        report.mean_kv_used_tokens = kv_used_integral_ / busy_end_ms;
        if (report.kv_capacity_tokens > 0)
            report.mean_kv_used_frac =
                report.mean_kv_used_tokens /
                static_cast<double>(report.kv_capacity_tokens);
    }
    if (decode_steps_ > 0)
        report.mean_decode_batch =
            decode_batch_sum_ / static_cast<double>(decode_steps_);
    if (series_.enabled()) {
        series_.finalize(busy_end_ms);
        report.series = std::move(series_);
    }
}

} // namespace serving
} // namespace tilus
