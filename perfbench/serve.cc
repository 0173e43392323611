/**
 * @file
 * The serve workload: an llm::ServingEngine (Gemma-2-9B, u4, simulated
 * L40S) is warmed during set-up; the run then replays open-loop Poisson
 * traces through serving::Simulator under the slo-paged scheduler with
 * paged KV. The request mix is bench_serving's mixed-class traffic:
 * prompts 64-512 tokens, outputs 32-128, even-indexed requests
 * interactive (2500 ms SLO), odd-indexed best-effort. One untimed,
 * audited round runs a 40000-request trace at a fixed low rate, one at a
 * fixed high rate, and a deterministic bisection for the highest rate
 * that meets the TTFT limit without a growing backlog; timed rounds then
 * replay the first 10000 requests of the two fixed-rate traces.
 * Latencies are on the simulator's virtual clock (modeled). host_s is
 * the event loop's host time for the fastest timed round; modeled_ms is
 * the geomean of the six exact latencies of the audited round (TTFT p50
 * and p99, TPOT p99, at both rates). Each of them and max_rate_rps is
 * printed, and the traced run reports them as serving.* per-layer
 * metrics.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "autotune/tuner.h"
#include "harness.h"
#include "llm/engine.h"
#include "serving/simulator.h"
#include "sim/gpu_spec.h"

namespace perfbench {
namespace {

using namespace tilus;

/// Request mix of bench_serving's mixed-class trace: prompt and output
/// length ranges and the interactive class's SLO (kTightSloMs there).
constexpr int64_t kPromptMin = 64, kPromptMax = 512;
constexpr int64_t kOutputMin = 32, kOutputMax = 128;
constexpr double kTightSloMs = 2500.0;

/// Fixed rates (requests per virtual second) and the TTFT limit that
/// defines max_rate_rps (the interactive class's SLO); the README and
/// BENCHMARK.json record them.
constexpr double kLowRps = 2.0;
constexpr double kHighRps = 5.0;
constexpr double kTtftLimitMs = kTightSloMs;
/// A run whose queue needs longer than this to drain after the last
/// arrival has a growing backlog.
constexpr double kDrainLimitMs = 10000.0;

constexpr int64_t kFixedRequests = 40000;
/// Per-rate trace length of timed and traced rounds: short rounds give
/// a run many repetitions (host_s is the fastest), and in a traced round
/// every plan and cost lookup is a span.
constexpr int64_t kTimedRequests = 10000;
constexpr int64_t kSearchRequests = 20000;
constexpr int kSearchSteps = 10;
constexpr double kSearchLoRps = 1.0;
constexpr double kSearchHiRps = 16.0;
constexpr int64_t kMaxBatch = 32;

/** A compact tuning space keeps the set-up's cold tune short; the
    serving loop only reads the tuned step costs. */
const autotune::TuneSpace &
serveSpace()
{
    static const autotune::TuneSpace space = [] {
        autotune::TuneSpace s;
        s.bm_tc = {16};
        s.bn = {128};
        s.bk = {64};
        s.warps_m = {1};
        s.warps_n = {2};
        s.simt_warps = {4};
        s.stages = {2};
        return s;
    }();
    return space;
}

/**
 * The seed's unit-rate trace (Poisson arrivals, mean gap 1 s) in the
 * mixed-class request mix; traces at other rates scale its arrivals, so
 * every rate sees the same requests.
 */
serving::Trace
unitRateTrace(uint64_t seed, int64_t n)
{
    serving::TraceOptions options;
    options.num_requests = n;
    options.rate_rps = 1.0;
    options.prompt_min = kPromptMin;
    options.prompt_max = kPromptMax;
    options.output_min = kOutputMin;
    options.output_max = kOutputMax;
    options.seed = mixSeed(seed, 4);
    serving::Trace trace = serving::poissonTrace(options);
    for (size_t i = 0; i < trace.requests.size(); ++i)
        trace.requests[i].slo_ms = i % 2 == 0 ? kTightSloMs : 0.0;
    return trace;
}

serving::Trace
traceAt(const serving::Trace &unit, int64_t n, double rate)
{
    serving::Trace trace;
    trace.requests.assign(unit.requests.begin(),
                          unit.requests.begin() + n);
    for (serving::Request &r : trace.requests)
        r.arrival_ms /= rate;
    return trace;
}

/** Forwarding cost model that records an llm.cost span per lookup. */
class TracedCosts : public llm::StepCostModel
{
  public:
    TracedCosts(llm::StepCostModel &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {}
    double decodeMs(int64_t batch) override
    {
        ScopedSpan span(&tracer_, "llm.cost");
        ++calls;
        return inner_.decodeMs(batch);
    }
    double prefillMs(int64_t tokens, int64_t past_tokens) override
    {
        ScopedSpan span(&tracer_, "llm.cost");
        ++calls;
        return inner_.prefillMs(tokens, past_tokens);
    }
    using StepCostModel::prefillMs;
    int64_t kvCapacityTokens() const override
    {
        return inner_.kvCapacityTokens();
    }
    int64_t maxBatch() const override { return inner_.maxBatch(); }
    int64_t contextTokens() const override { return inner_.contextTokens(); }

    int64_t calls = 0;

  private:
    llm::StepCostModel &inner_;
    Tracer &tracer_;
};

/**
 * Forwarding scheduler. When checking, it verifies the page pool at
 * every plan (pages in use == pages held by running requests); when
 * given a tracer, it records a serving.scheduler span per plan.
 */
class CheckedScheduler : public serving::Scheduler
{
  public:
    CheckedScheduler(serving::Scheduler &inner, Tracer *tracer, bool check)
        : inner_(inner), tracer_(tracer), check_(check)
    {}
    std::string name() const override { return inner_.name(); }
    bool pagedAware() const override { return inner_.pagedAware(); }
    void reset() override { inner_.reset(); }
    serving::BatchPlan plan(const serving::SchedulerView &view,
                            const serving::SchedulerLimits &limits) override
    {
        const serving::KvPagePool *pool = check_ ? view.kv_pool : nullptr;
        if (pool) {
            int64_t held = 0;
            for (int64_t id : *view.running)
                held += pool->pagesHeld(id);
            unbalanced += held != pool->usedPages();
        }
        ScopedSpan span(tracer_, "serving.scheduler");
        ++plans;
        return inner_.plan(view, limits);
    }

    int64_t plans = 0;
    int64_t unbalanced = 0;

  private:
    serving::Scheduler &inner_;
    Tracer *tracer_;
    bool check_;
};

/** Latency percentiles of one fixed-rate trace (virtual ms). */
struct Latency
{
    double ttft_p50 = 0, ttft_p99 = 0, tpot_p99 = 0, makespan = 0;

    bool
    operator==(const Latency &o) const
    {
        return ttft_p50 == o.ttft_p50 && ttft_p99 == o.ttft_p99 &&
               tpot_p99 == o.tpot_p99 && makespan == o.makespan;
    }
};

/** What one serving round produced (all modeled, deterministic). */
struct Round
{
    /// Exact percentiles over the per-request states; audited rounds
    /// only (keeping the states and sorting them is benchmark work).
    Latency low, high;
    /// The reports' own sketch summaries; every round.
    Latency low_sketch, high_sketch;
    double max_rate = 0;
    int64_t requests = 0; ///< simulated in the round
    int64_t steps = 0;
    int64_t preemptions = 0;
    int64_t fixed_steps = 0; ///< of the two fixed-rate traces
    int64_t fixed_preemptions = 0;

    /** Same fixed-rate outcome (the part every round runs). */
    bool
    sameAs(const Round &o) const
    {
        return low_sketch == o.low_sketch && high_sketch == o.high_sketch &&
               fixed_steps == o.fixed_steps &&
               fixed_preemptions == o.fixed_preemptions;
    }
};

/** The fixed-rate traces of one trace length. */
struct Traces
{
    serving::Trace low, high;
};

/** Everything the set-up builds: runtime, engine, traces. */
struct Bench
{
    std::unique_ptr<runtime::Runtime> rt;
    std::unique_ptr<llm::ServingEngine> engine;
    serving::Trace unit;
    Traces fixed;  ///< kFixedRequests per rate
    Traces timed;  ///< kTimedRequests per rate
};

class Server
{
  public:
    Server(Bench &bench, Tracer *tracer, Result &result)
        : bench_(bench), tracer_(tracer), result_(result)
    {}

    /**
     * The low-rate and high-rate traces. An audited round also checks
     * the page pool at every plan, computes exact percentiles and runs
     * the max-rate bisection; the timed rounds do none of that.
     */
    Round round(const Traces &traces, bool audited)
    {
        audited_ = audited;
        Round r;
        const int compiles = bench_.rt->compileCount();
        const serving::ServingReport low = *simulate(traces.low, r, true);
        const serving::ServingReport high = *simulate(traces.high, r, true);
        r.low_sketch = sketchLatency(low);
        r.high_sketch = sketchLatency(high);
        r.fixed_steps = r.steps;
        r.fixed_preemptions = r.preemptions;
        if (audited) {
            r.low = exactLatency(low);
            r.high = exactLatency(high);
        }
        result_.check(bench_.rt->compileCount() == compiles,
                      "serving triggered kernel compiles");
        if (!audited)
            return r;
        double lo = kSearchLoRps, hi = kSearchHiRps;
        for (int step = 0; step < kSearchSteps; ++step) {
            const double mid = std::sqrt(lo * hi);
            // A run still busy kDrainLimitMs after its last arrival has a
            // growing backlog; the simulator stops it there.
            const serving::Trace trace =
                traceAt(bench_.unit, kSearchRequests, mid);
            const double last_arrival = trace.requests.back().arrival_ms;
            std::optional<serving::ServingReport> rep =
                simulate(trace, r, false, last_arrival + kDrainLimitMs);
            const bool meets = rep && rep->completed == rep->total_requests &&
                               rep->ttft.p99 <= kTtftLimitMs;
            (meets ? lo : hi) = mid;
        }
        r.max_rate = lo;
        return r;
    }

    int64_t cost_calls = 0;
    int64_t plans = 0;

  private:
    /** Exact TTFT / TPOT percentiles over the completed requests (the
        report's own summaries come from 1%-accuracy sketches). */
    static Latency exactLatency(const serving::ServingReport &rep)
    {
        std::vector<double> ttft, tpot;
        for (const serving::RequestState &s : rep.requests) {
            if (s.phase != serving::Phase::kFinished)
                continue;
            ttft.push_back(s.first_token_ms - s.request.arrival_ms);
            if (s.request.output_tokens > 1)
                tpot.push_back((s.finish_ms - s.first_token_ms) /
                               static_cast<double>(
                                   s.request.output_tokens - 1));
        }
        Latency l;
        l.ttft_p50 = percentile(ttft, 0.50);
        l.ttft_p99 = percentile(ttft, 0.99);
        l.tpot_p99 = percentile(tpot, 0.99);
        l.makespan = rep.makespan_ms;
        return l;
    }

    static Latency sketchLatency(const serving::ServingReport &rep)
    {
        Latency l;
        l.ttft_p50 = rep.ttft.p50;
        l.ttft_p99 = rep.ttft.p99;
        l.tpot_p99 = rep.tpot.p99;
        l.makespan = rep.makespan_ms;
        return l;
    }

    /** One trace; nullopt when the run passed @p max_sim_ms of virtual
        time (a growing backlog). */
    std::optional<serving::ServingReport>
    simulate(const serving::Trace &trace, Round &round, bool fixed_rate,
             double max_sim_ms = 0)
    {
        const int64_t n = static_cast<int64_t>(trace.requests.size());
        serving::SloScheduler slo;
        CheckedScheduler scheduler(slo, tracer_, audited_);
        serving::SimOptions options;
        options.limits = serving::pagedLimitsFrom(*bench_.engine);
        options.limits.max_batch = kMaxBatch;
        // Per-request states only where exact percentiles are computed.
        options.keep_request_states = audited_ && fixed_rate;
        options.series_window_ms = 0;
        options.max_sim_ms = max_sim_ms;
        std::unique_ptr<TracedCosts> traced;
        llm::StepCostModel *costs = bench_.engine.get();
        if (tracer_) {
            traced = std::make_unique<TracedCosts>(*costs, *tracer_);
            costs = traced.get();
        }
        serving::Simulator simulator(*costs, scheduler, options);
        serving::ServingReport rep;
        result_.attempt(n);
        try {
            ScopedSpan span(tracer_, "serving.run");
            rep = simulator.run(trace);
        } catch (const std::exception &e) {
            const std::string what = e.what();
            if (max_sim_ms > 0 &&
                what.find("virtual clock passed max_sim_ms") !=
                    std::string::npos)
                return std::nullopt;
            result_.fail("serving run failed: " + what);
            return rep;
        }
        result_.check(rep.completed + rep.rejected + rep.failed ==
                          rep.total_requests &&
                          rep.total_requests == n,
                      "serving report does not conserve requests");
        result_.check(scheduler.unbalanced == 0,
                      "KV page pool out of balance during a run");
        if (fixed_rate) {
            // Every rejected or failed request at a fixed rate is an
            // error.
            for (int64_t i = 0; i < rep.rejected + rep.failed; ++i)
                result_.fail("request rejected or failed at a fixed rate");
        }
        round.requests += n;
        round.steps += rep.prefill_steps + rep.decode_steps;
        round.preemptions += rep.preemptions;
        if (traced)
            cost_calls += traced->calls;
        plans += scheduler.plans;
        return rep;
    }

    Bench &bench_;
    Tracer *tracer_;
    Result &result_;
    bool audited_ = false;
};

/** The audited round's modeled serving figures, as serving.* values:
    exact TTFT / TPOT percentiles at both fixed rates and the max rate. */
void
servingFigures(const Round &r, LayerValues &values)
{
    values["serving.ttft_p50_ms.low"] = r.low.ttft_p50;
    values["serving.ttft_p99_ms.low"] = r.low.ttft_p99;
    values["serving.tpot_p99_ms.low"] = r.low.tpot_p99;
    values["serving.ttft_p50_ms.high"] = r.high.ttft_p50;
    values["serving.ttft_p99_ms.high"] = r.high.ttft_p99;
    values["serving.tpot_p99_ms.high"] = r.high.tpot_p99;
    values["serving.max_rate_rps"] = r.max_rate;
}

Bench
setUp(const RunConfig &config)
{
    // Fresh in-memory tier and an empty private tune DB: every set-up
    // pays the same cold tune.
    clearDir(config.cache_dir + "/tune");
    Bench bench;
    bench.rt = std::make_unique<runtime::Runtime>(sim::l40s());
    bench.rt->setDiskCache(nullptr);
    llm::EngineOptions options;
    options.wdtype = uint4();
    options.tune_space = &serveSpace();
    bench.engine = std::make_unique<llm::ServingEngine>(
        *bench.rt, llm::gemma2_9b(), options);
    serving::SloScheduler slo;
    serving::SimOptions sim_options;
    sim_options.limits = serving::pagedLimitsFrom(*bench.engine);
    sim_options.limits.max_batch = kMaxBatch;
    serving::Simulator(*bench.engine, slo, sim_options).warmUp();
    bench.unit = unitRateTrace(config.seed, kFixedRequests);
    bench.fixed = {traceAt(bench.unit, kFixedRequests, kLowRps),
                   traceAt(bench.unit, kFixedRequests, kHighRps)};
    bench.timed = {traceAt(bench.unit, kTimedRequests, kLowRps),
                   traceAt(bench.unit, kTimedRequests, kHighRps)};
    return bench;
}

} // namespace

void
runServe(const RunConfig &config, Result &result)
{
    Bench bench;
    const double setup_s = timedSetup(kSetupReps, [&] {
        bench.engine.reset(); // the engine refers to the runtime
        bench.rt.reset();
        bench = setUp(config);
    });
    Server server(bench, nullptr, result);
    // An untimed, audited round with the max-rate search gives the
    // modeled figures. The timed (and traced) rounds run the shorter
    // fixed-rate traces and must repeat an untimed round of them exactly.
    const Round first = server.round(bench.fixed, /*audited=*/true);

    if (!config.trace) {
        const Round reference = server.round(bench.timed, false);
        std::vector<double> round_s;
        timedLoop(config.seconds, 3, [&] {
            const double t0 = nowS();
            Round r = server.round(bench.timed, /*audited=*/false);
            round_s.push_back(nowS() - t0);
            result.check(r.sameAs(reference),
                         "serving round did not repeat exactly");
        }, /*rotate_cpus=*/true);
        result.metric("setup_s", setup_s, "s");
        result.metric("host_s", fastest(round_s), "s");
        LayerValues figures;
        servingFigures(first, figures);
        std::vector<double> latencies;
        for (const auto &[name, value] : figures)
            if (name.find("_ms.") != std::string::npos)
                latencies.push_back(value);
        result.metric("modeled_ms", geomean(latencies), "ms");
        for (const auto &[name, value] : figures)
            std::printf("%-40s %14.6f\n", name.c_str(), value);
        std::printf("timed rounds: %zu of %lld requests (median %.4f s); "
                    "audited round with search: %lld steps, %lld "
                    "preemptions\n",
                    round_s.size(), 2LL * kTimedRequests, median(round_s),
                    static_cast<long long>(first.steps),
                    static_cast<long long>(first.preemptions));
        return;
    }

    const double t0 = nowS();
    const Round untraced = server.round(bench.timed, false);
    const double untraced_s = nowS() - t0;
    Tracer tracer;
    Server traced(bench, &tracer, result);
    const double start = nowS();
    Round r;
    {
        ScopedSpan root(&tracer, "bench.round");
        r = traced.round(bench.timed, false);
    }
    const double end = nowS();
    result.check(r.sameAs(untraced), "traced serving round differs");
    // Untraced rounds before and after the traced one: the overhead's
    // base is their mean, so the order does not bias it.
    const double t1 = nowS();
    server.round(bench.timed, false);
    const double untraced_after_s = nowS() - t1;
    LayerValues values;
    servingFigures(first, values);
    addSpanTimes(tracer, values);
    values["llm.cost_calls"] = static_cast<double>(traced.cost_calls);
    values["serving.plans"] = static_cast<double>(traced.plans);
    values["serving.steps"] = static_cast<double>(r.steps);
    values["serving.preemptions"] = static_cast<double>(r.preemptions);
    values["serving.us_per_step"] =
        r.steps > 0 ? values["serving.run_s"] * 1e6 / r.steps : 0;
    traceSummary(config, tracer, start, end,
                 0.5 * (untraced_s + untraced_after_s), values);
    emitLayerMetrics(values, result);
}

} // namespace perfbench
