/**
 * @file
 * Serving-level benchmark: Gemma-2-9B on the simulated L40S, sweeping
 * request traffic x system (vLLM-style dense f16 via cuBLAS vs Tilus
 * u4) x scheduler through the continuous-batching simulator. Where the
 * kernel benches report microseconds per matmul, this reports what a
 * deployment sees: TTFT/TPOT, p50/p95/p99 latency, sustained
 * throughput, goodput under an end-to-end SLO, and batch/KV occupancy.
 *
 * Three schedulers run every trace:
 *
 *  - fcfs-reserve: whole-request KV reservation at admission (the old
 *    conservative baseline — never preempts, under-utilizes);
 *  - fcfs-paged: page-granular KV accounting with LIFO preemption —
 *    same arrival order, fuller batches;
 *  - slo-paged: paged + deadline-class-aware admission/preemption,
 *    maximizing goodput.
 *
 * Traffic is Poisson at 4/8/16 req/s plus one bursty trace (16 req/s in
 * bursts of 16) with mixed deadline classes — half the requests carry a
 * tight SLO, half are best-effort — which is where SLO-aware
 * scheduling shows up. The run self-gates: paged occupancy must beat
 * reservation at equal traffic, and slo-paged must beat fcfs-paged on
 * bursty goodput, or the process exits non-zero.
 *
 * Fully deterministic: a fixed seed generates identical traces for
 * every system and scheduler at each traffic point, and the virtual
 * clock advances only by simulated step costs. Pass a path argument to
 * also record the sweep as a JSON document (see BENCH_serving.json).
 *
 * After the sweep a stress section replays a 10^5-request closed-loop
 * trace in sketch mode (keep_request_states = false) and self-gates the
 * streaming-telemetry contract: report memory stays O(1) in the request
 * count (bounded sketch buckets, no retained per-request states), the
 * sketch-mode report is byte-identical to the state-retaining one, the
 * recorded p50/p95/p99 land within the sketch's relative-accuracy bound
 * of the exact per-request vectors, and merging two disjoint 5*10^4
 * shards reproduces the pooled percentiles within the same bound.
 *
 * A final fault section replays the poisson-8 trace under an injected
 * 1% engine-step fault rate (fault spec "serving.step=p0.01@13", see
 * src/support/fault.h) and self-gates graceful degradation: the report
 * stays internally consistent, goodput retains >= 60% of the fault-free
 * run, and the retry budget keeps availability >= 0.9.
 */
#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "support/percentile.h"

#include "bench_common.h"
#include "llm/engine.h"
#include "obs/build_info.h"
#include "serving/simulator.h"
#include "sim/gpu_spec.h"
#include "support/fault.h"

using namespace tilus;
using namespace tilus::bench;

namespace {

constexpr uint64_t kSeed = 42;
constexpr double kSloMs = 5000.0;      ///< uniform SLO (Poisson traces)
constexpr double kTightSloMs = 2500.0; ///< tight class (bursty trace)

/**
 * The scheduler may batch past the engine's KV sizing assumption
 * (EngineOptions::max_batch, which sizes the reservation as
 * context_tokens * max_batch). That headroom is exactly what paged
 * accounting exploits: requests materialize far less KV than their
 * worst-case demand, so the same reservation serves ~3x the
 * concurrency. Reservation mode is naturally capped by capacity
 * instead — full demands never over-subscribe.
 */
constexpr int64_t kServeMaxBatch = 48;

struct SystemUnderTest
{
    const char *label;
    baselines::System system;
    DataType wdtype;
};

enum class Policy
{
    kFcfsReserve,
    kFcfsPaged,
    kSloPaged,
};

const char *
policyLabel(Policy policy)
{
    switch (policy) {
      case Policy::kFcfsReserve: return "fcfs-reserve";
      case Policy::kFcfsPaged: return "fcfs-paged";
      case Policy::kSloPaged: return "slo-paged";
    }
    return "?";
}

/** Heavy requests (mean demand ~560 tokens): the reservation baseline
    fits only ~29 of kServeMaxBatch=48 concurrent, which is the
    utilization gap the paged pool closes. Used for the Poisson rate
    sweep. */
serving::TraceOptions
heavyTraceOptions(double rate_rps)
{
    serving::TraceOptions options;
    options.num_requests = 96;
    options.rate_rps = rate_rps;
    options.prompt_min = 64;
    options.prompt_max = 768;
    options.output_min = 32;
    options.output_max = 256;
    options.slo_ms = kSloMs;
    options.seed = kSeed;
    return options;
}

/** The bursty trace is moderate pressure — deadlines are winnable, so
    scheduling order (not raw throughput) decides goodput — and mixes
    deadline classes: even-indexed requests are interactive (tight
    SLO), odd-indexed are best-effort batch work. */
serving::Trace
burstyMixedTrace()
{
    serving::TraceOptions options;
    options.num_requests = 48;
    options.rate_rps = 16.0;
    options.prompt_min = 64;
    options.prompt_max = 512;
    options.output_min = 32;
    options.output_max = 128;
    options.seed = kSeed;
    serving::Trace trace = serving::burstyTrace(options, 16);
    for (size_t i = 0; i < trace.requests.size(); ++i)
        trace.requests[i].slo_ms = (i % 2 == 0) ? kTightSloMs : 0.0;
    return trace;
}

serving::ServingReport
runOne(llm::ServingEngine &engine, const SystemUnderTest &sut,
       Policy policy, const serving::Trace &trace, const char *trace_label,
       double rate_rps)
{
    serving::FcfsScheduler fcfs_reserve;
    serving::PagedFcfsScheduler fcfs_paged;
    serving::SloScheduler slo_paged;
    serving::Scheduler *scheduler = nullptr;
    serving::SimOptions options;
    switch (policy) {
      case Policy::kFcfsReserve:
        scheduler = &fcfs_reserve;
        options.limits = serving::limitsFrom(engine);
        break;
      case Policy::kFcfsPaged:
        scheduler = &fcfs_paged;
        options.limits = serving::pagedLimitsFrom(engine);
        break;
      case Policy::kSloPaged:
        scheduler = &slo_paged;
        options.limits = serving::pagedLimitsFrom(engine);
        break;
    }
    options.limits.max_batch = kServeMaxBatch; // see kServeMaxBatch
    serving::Simulator simulator(engine, *scheduler, options);
    // Tune every step-cost bucket up front (persistent autotune
    // database: only the first-ever run pays the sweeps) so the event
    // loop never stalls on a cold kernel tuning mid-trace.
    simulator.warmUp();
    serving::ServingReport report = simulator.run(trace);
    report.system = sut.label;
    report.model = engine.model().name + "/" + trace_label;
    report.wdtype = engine.options().wdtype.name();
    report.rate_rps = rate_rps;
    report.seed = kSeed;
    return report;
}

//
// Stress section: streaming-telemetry gates at 10^5 requests.
//

constexpr int64_t kStressRequests = 100000;
constexpr int64_t kStressClients = 64;
constexpr int64_t kStressShardClients = 32;
constexpr double kStressWindowMs = 60000.0; ///< one series window / min

/** The sketch guarantees kDefaultSketchAccuracy (1%) per value; the
    hair on top covers the rank-interpolation difference between the
    sketch's bucket walk and the exact type-7 reference at finite
    sample counts. */
constexpr double kStressTol = obs::kDefaultSketchAccuracy + 5e-4;

/** Light requests keep the 10^5-request makespan manageable while the
    closed loop holds queue pressure constant. */
serving::TraceOptions
stressTraceOptions(int64_t num_requests, uint64_t seed)
{
    serving::TraceOptions options;
    options.num_requests = num_requests;
    options.prompt_min = 64;
    options.prompt_max = 256;
    options.output_min = 16;
    options.output_max = 64;
    options.seed = seed;
    return options;
}

serving::ServingReport
runStressTrace(llm::ServingEngine &engine, const serving::Trace &trace,
               const char *trace_label, bool keep_request_states,
               uint64_t seed)
{
    serving::PagedFcfsScheduler scheduler;
    serving::SimOptions options;
    options.limits = serving::pagedLimitsFrom(engine);
    options.limits.max_batch = kServeMaxBatch;
    options.series_window_ms = kStressWindowMs;
    options.keep_request_states = keep_request_states;
    serving::Simulator simulator(engine, scheduler, options);
    simulator.warmUp();
    serving::ServingReport report = simulator.run(trace);
    report.system = "Tilus u4";
    report.model = engine.model().name + "/" + trace_label;
    report.wdtype = engine.options().wdtype.name();
    report.rate_rps = 0; // closed loop
    report.seed = seed;
    return report;
}

/** Exact per-request reference vectors, mirroring what MetricTracker
    feeds the sketches (see src/serving/metrics.cc). */
struct ExactVectors
{
    std::vector<double> ttft, tpot, latency, queue_wait;

    void
    append(const std::vector<serving::RequestState> &states)
    {
        for (const serving::RequestState &state : states) {
            if (state.phase != serving::Phase::kFinished)
                continue;
            const serving::Request &request = state.request;
            ttft.push_back(state.first_token_ms - request.arrival_ms);
            latency.push_back(state.finish_ms - request.arrival_ms);
            queue_wait.push_back(state.admitted_ms - request.arrival_ms);
            if (request.output_tokens > 1)
                tpot.push_back(
                    (state.finish_ms - state.first_token_ms) /
                    static_cast<double>(request.output_tokens - 1));
        }
    }
};

/** Relative error, degrading to absolute when the reference is an
    exact zero (those land in the sketch's zero bucket). */
double
relErrOf(double got, double want)
{
    if (want == 0.0)
        return std::fabs(got);
    return std::fabs(got - want) / std::fabs(want);
}

/** Worst p50/p95/p99 deviation of the report's sketch-backed summaries
    from exact type-7 percentiles over retained request vectors. */
double
maxQuantileRelErr(const serving::ServingReport &report,
                  const ExactVectors &exact)
{
    struct
    {
        const serving::LatencySummary *summary;
        const std::vector<double> *values;
    } const pairs[] = {
        {&report.ttft, &exact.ttft},
        {&report.tpot, &exact.tpot},
        {&report.latency, &exact.latency},
        {&report.queue_wait, &exact.queue_wait},
    };
    double worst = 0;
    for (const auto &pair : pairs) {
        for (double pct : {50.0, 95.0, 99.0})
            worst = std::max(worst,
                             relErrOf(pct == 50.0   ? pair.summary->p50
                                      : pct == 95.0 ? pair.summary->p95
                                                    : pair.summary->p99,
                                      percentile(*pair.values, pct)));
    }
    return worst;
}

struct StressResult
{
    std::string evidence; ///< JSON block recorded under "stress"
    bool ok = true;
};

StressResult
runStressSection()
{
    printHeader("Stress: 10^5-request closed-loop trace in sketch mode "
                "(O(1) report memory)");
    StressResult out;

    runtime::Runtime rt(sim::l40s());
    llm::EngineOptions eopts;
    eopts.system = baselines::System::kTilus;
    eopts.wdtype = uint4();
    llm::ServingEngine engine(rt, llm::gemma2_9b(), eopts);

    const serving::Trace trace = serving::closedLoopTrace(
        stressTraceOptions(kStressRequests, kSeed), kStressClients);
    serving::ServingReport lean =
        runStressTrace(engine, trace, "closed-64", false, kSeed);
    serving::ServingReport full =
        runStressTrace(engine, trace, "closed-64", true, kSeed);

    // Gate S1: sketch mode retains no per-request state, and total
    // sketch storage is bounded by the metrics' dynamic range — not by
    // the request count.
    const int64_t buckets = lean.ttft_sketch.allocatedBuckets() +
                            lean.tpot_sketch.allocatedBuckets() +
                            lean.latency_sketch.allocatedBuckets() +
                            lean.queue_wait_sketch.allocatedBuckets();
    if (!lean.requests.empty() || lean.completed != kStressRequests ||
        buckets >= 4096) {
        std::printf("  ^ GATE FAIL: sketch mode is not O(1): "
                    "%zu retained states, %lld/%lld completed, "
                    "%lld sketch buckets\n",
                    lean.requests.size(), (long long)lean.completed,
                    (long long)kStressRequests, (long long)buckets);
        out.ok = false;
    }

    // Gate S2: dropping the per-request states changes nothing the
    // report says — every aggregate is accumulated incrementally.
    serving::ServingReport full_lean_view = full;
    full_lean_view.requests.clear();
    const bool match = lean.toJson() == full_lean_view.toJson();
    if (!match) {
        std::printf("  ^ GATE FAIL: sketch-mode report differs from the "
                    "state-retaining run\n");
        out.ok = false;
    }

    // Gate S3: recorded tails track the exact reference within the
    // sketch's relative-accuracy bound.
    ExactVectors exact;
    exact.append(full.requests);
    const double rel_err = maxQuantileRelErr(lean, exact);
    if (rel_err > kStressTol) {
        std::printf("  ^ GATE FAIL: sketch quantile rel err %.4g "
                    "exceeds bound %.4g\n",
                    rel_err, kStressTol);
        out.ok = false;
    }

    // Gate S4: merging two disjoint 5*10^4 shards reproduces the
    // pooled percentiles within the same bound.
    serving::Trace shard_a_trace = serving::closedLoopTrace(
        stressTraceOptions(kStressRequests / 2, kSeed),
        kStressShardClients);
    serving::Trace shard_b_trace = serving::closedLoopTrace(
        stressTraceOptions(kStressRequests / 2, kSeed + 1),
        kStressShardClients);
    serving::ServingReport shard_a = runStressTrace(
        engine, shard_a_trace, "closed-32-shard", true, kSeed);
    serving::ServingReport shard_b = runStressTrace(
        engine, shard_b_trace, "closed-32-shard", true, kSeed + 1);
    const int64_t shard_completed = shard_a.completed + shard_b.completed;
    ExactVectors pooled;
    pooled.append(shard_a.requests);
    pooled.append(shard_b.requests);
    serving::ServingReport merged = shard_a;
    merged.merge(shard_b);
    const double merge_rel_err = maxQuantileRelErr(merged, pooled);
    if (merged.completed != shard_completed ||
        merge_rel_err > kStressTol) {
        std::printf("  ^ GATE FAIL: merged shard report off pooled "
                    "reference: completed %lld vs %lld, rel err %.4g "
                    "(bound %.4g)\n",
                    (long long)merged.completed,
                    (long long)shard_completed, merge_rel_err,
                    kStressTol);
        out.ok = false;
    }

    std::printf("%lld requests, %lld clients: %.1f tok/s, lat p50 %.1f "
                "p99 %.1f ms, %lld sketch buckets\n"
                "quantile rel err %.4g (merge %.4g), bound %.4g; "
                "sketch-mode report %s the retaining run\n",
                (long long)lean.completed, (long long)kStressClients,
                lean.throughput_tok_s, lean.latency.p50, lean.latency.p99,
                (long long)buckets, rel_err, merge_rel_err, kStressTol,
                match ? "matches" : "DIFFERS FROM");

    std::ostringstream ev;
    ev << "{\"requests\":" << kStressRequests
       << ",\"clients\":" << kStressClients
       << ",\"shard_clients\":" << kStressShardClients
       << ",\"sketch_buckets\":" << buckets
       << ",\"sketch_mode_matches_full\":" << (match ? "true" : "false")
       << ",\"max_quantile_rel_err\":" << rel_err
       << ",\"merge_max_quantile_rel_err\":" << merge_rel_err
       << ",\"rel_err_bound\":" << kStressTol
       << ",\"report\":" << lean.toJson() << "}";
    out.evidence = ev.str();
    return out;
}

//
// Fault section: goodput under an injected 1% step-fault rate.
//

/** The spec the fault run arms: every engine step fails with p=0.01
    from a fixed seeded stream, so the schedule is reproducible. */
constexpr const char *kFaultSpec = "serving.step=p0.01@13";
constexpr double kFaultRate = 0.01;

/** Goodput under the 1% fault rate must retain at least this fraction
    of the fault-free run's: faulted steps burn time and retries add
    backoff, but the degradation must stay proportionate — a collapse
    here means eviction/re-queue is losing more work than the faults
    themselves destroy. */
constexpr double kFaultGoodputFloor = 0.60;

/** Nearly every request must still complete: with the default retry
    budget (3), a request only fails on repeated per-request faults. */
constexpr double kFaultAvailabilityFloor = 0.90;

struct FaultSectionResult
{
    std::string evidence; ///< JSON block recorded under "faults"
    bool ok = true;
};

FaultSectionResult
runFaultSection()
{
    printHeader("Faults: goodput under a 1% injected step-fault rate "
                "(paged FCFS, poisson-8)");
    FaultSectionResult out;

    runtime::Runtime rt(sim::l40s());
    llm::EngineOptions eopts;
    eopts.system = baselines::System::kTilus;
    eopts.wdtype = uint4();
    llm::ServingEngine engine(rt, llm::gemma2_9b(), eopts);
    const serving::Trace trace =
        serving::poissonTrace(heavyTraceOptions(8.0));

    auto run = [&]() {
        serving::PagedFcfsScheduler scheduler;
        serving::SimOptions options;
        options.limits = serving::pagedLimitsFrom(engine);
        options.limits.max_batch = kServeMaxBatch;
        serving::Simulator simulator(engine, scheduler, options);
        simulator.warmUp();
        serving::ServingReport report = simulator.run(trace);
        report.system = "Tilus u4";
        report.model = engine.model().name + "/poisson-8-faults";
        report.wdtype = engine.options().wdtype.name();
        report.rate_rps = 8.0;
        report.seed = kSeed;
        return report;
    };

    fault::disarm();
    const serving::ServingReport clean = run();
    fault::configure(kFaultSpec);
    const serving::ServingReport faulted = run();
    fault::disarm();

    // Gate F1: faults actually fired and the report stays consistent —
    // every request reached exactly one terminal state.
    if (faulted.injected_faults <= 0 ||
        faulted.completed + faulted.rejected + faulted.failed !=
            faulted.total_requests) {
        std::printf("  ^ GATE FAIL: inconsistent fault run: %lld "
                    "injected, %lld+%lld+%lld of %lld terminal\n",
                    (long long)faulted.injected_faults,
                    (long long)faulted.completed,
                    (long long)faulted.rejected,
                    (long long)faulted.failed,
                    (long long)faulted.total_requests);
        out.ok = false;
    }

    // Gate F2: goodput degrades proportionately, not catastrophically.
    const double goodput_frac =
        clean.goodput_req_s > 0
            ? faulted.goodput_req_s / clean.goodput_req_s
            : 0.0;
    if (goodput_frac < kFaultGoodputFloor) {
        std::printf("  ^ GATE FAIL: goodput under faults %.3f of "
                    "fault-free (floor %.2f)\n",
                    goodput_frac, kFaultGoodputFloor);
        out.ok = false;
    }

    // Gate F3: the retry budget absorbs a 1% rate almost entirely.
    if (faulted.availability < kFaultAvailabilityFloor) {
        std::printf("  ^ GATE FAIL: availability %.3f under floor %.2f\n",
                    faulted.availability, kFaultAvailabilityFloor);
        out.ok = false;
    }

    std::printf("fault-free: %.2f goodput req/s | under %s: %.2f "
                "(%.0f%%), %lld faults, %lld retries, %lld failed, "
                "availability %.3f\n",
                clean.goodput_req_s, kFaultSpec, faulted.goodput_req_s,
                100.0 * goodput_frac, (long long)faulted.injected_faults,
                (long long)faulted.retries, (long long)faulted.failed,
                faulted.availability);

    std::ostringstream ev;
    ev << "{\"step_fault_rate\":" << kFaultRate << ",\"spec\":\""
       << kFaultSpec << "\",\"injected\":" << faulted.injected_faults
       << ",\"fault_free_goodput_req_s\":" << clean.goodput_req_s
       << ",\"goodput_frac\":" << goodput_frac
       << ",\"goodput_floor\":" << kFaultGoodputFloor
       << ",\"availability_floor\":" << kFaultAvailabilityFloor
       << ",\"report\":" << faulted.toJson() << "}";
    out.evidence = ev.str();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    printHeader("Serving: continuous batching, paged KV & SLO-aware "
                "scheduling (Gemma-2-9B, L40S, simulated)");

    const SystemUnderTest suts[] = {
        {"vLLM f16", baselines::System::kCublas, float16()},
        {"Tilus u4", baselines::System::kTilus, uint4()},
    };
    const Policy policies[] = {Policy::kFcfsReserve, Policy::kFcfsPaged,
                               Policy::kSloPaged};
    const double rates[] = {4.0, 8.0, 16.0};

    std::vector<serving::ServingReport> reports;
    bool gates_ok = true;
    std::printf("%-10s %-13s %-8s %9s %9s %8s %9s %9s %6s %6s %6s\n",
                "system", "scheduler", "trace", "tok/s", "goodput",
                "ttft50", "lat-p95", "tpot50", "batch", "kv%", "prmpt");
    for (const SystemUnderTest &sut : suts) {
        runtime::Runtime rt(sim::l40s());
        llm::EngineOptions options;
        options.system = sut.system;
        options.wdtype = sut.wdtype;
        // One engine per system: the step-cost cache is shared across
        // the whole scheduler x traffic sweep.
        llm::ServingEngine engine(rt, llm::gemma2_9b(), options);

        // (trace label, rate, trace) points, identical across systems
        // and schedulers.
        std::vector<std::pair<std::string, serving::Trace>> traffic;
        std::vector<double> traffic_rate;
        for (double rate : rates) {
            char label[32];
            std::snprintf(label, sizeof(label), "poisson-%g", rate);
            traffic.emplace_back(
                label, serving::poissonTrace(heavyTraceOptions(rate)));
            traffic_rate.push_back(rate);
        }
        traffic.emplace_back("bursty-16", burstyMixedTrace());
        traffic_rate.push_back(16.0);

        bool paged_ever_strictly_better = false;
        for (size_t t = 0; t < traffic.size(); ++t) {
            serving::ServingReport per_policy[3];
            for (size_t p = 0; p < 3; ++p) {
                per_policy[p] = runOne(engine, sut, policies[p],
                                       traffic[t].second,
                                       traffic[t].first.c_str(),
                                       traffic_rate[t]);
                const serving::ServingReport &r = per_policy[p];
                std::printf("%-10s %-13s %-8s %9.1f %9.2f %8.1f %9.1f "
                            "%8.2f %6.1f %5.1f%% %6ld\n",
                            sut.label, policyLabel(policies[p]),
                            traffic[t].first.c_str(),
                            r.throughput_tok_s, r.goodput_req_s,
                            r.ttft.p50, r.latency.p95, r.tpot.p50,
                            r.mean_decode_batch,
                            100.0 * r.mean_kv_used_frac,
                            long(r.preemptions));
                reports.push_back(r);
            }
            // Gate 1a: paged occupancy is never worse than reservation
            // at equal traffic (light loads run identically — the KV
            // cache simply never binds).
            const serving::ServingReport &reserve = per_policy[0];
            const serving::ServingReport &paged = per_policy[1];
            if (paged.mean_kv_used_frac < reserve.mean_kv_used_frac ||
                paged.mean_decode_batch < reserve.mean_decode_batch) {
                std::printf("  ^ GATE FAIL: paged occupancy worse than "
                            "reservation\n");
                gates_ok = false;
            }
            if (paged.mean_kv_used_frac > reserve.mean_kv_used_frac &&
                paged.mean_decode_batch > reserve.mean_decode_batch)
                paged_ever_strictly_better = true;
            // Gate 2: deadline-aware scheduling wins goodput on the
            // bursty mixed-class trace.
            const bool bursty = traffic[t].first == "bursty-16";
            if (bursty &&
                per_policy[2].goodput_req_s <= per_policy[1].goodput_req_s) {
                std::printf("  ^ GATE FAIL: slo-paged goodput does not "
                            "beat fcfs-paged on the bursty trace\n");
                gates_ok = false;
            }
        }
        // Gate 1b: somewhere in the sweep the paged pool actually
        // converted the reservation headroom into strictly higher
        // batch AND KV occupancy.
        if (!paged_ever_strictly_better) {
            std::printf("  ^ GATE FAIL: paged occupancy never strictly "
                        "beat reservation for %s\n",
                        sut.label);
            gates_ok = false;
        }
    }

    StressResult stress = runStressSection();
    if (!stress.ok)
        gates_ok = false;

    FaultSectionResult faults = runFaultSection();
    if (!faults.ok)
        gates_ok = false;

    std::printf("\nPoisson traces carry a uniform %.0f ms SLO; the "
                "bursty trace mixes %.0f ms interactive and best-effort "
                "classes.\ngoodput = completions inside their SLO per "
                "second; kv%% = mean materialized KV entries / capacity;"
                "\nprmpt = preemptions (paged modes recompute the "
                "evicted context on resume).\nSame seed (%llu) => every "
                "scheduler serves identical traces; rerunning "
                "reproduces every number exactly.\n",
                kSloMs, kTightSloMs, (unsigned long long)kSeed);

    std::ostringstream json;
    json << "{\"bench\":\"serving\",\"build_info\":"
         << obs::buildInfoJson() << ",\"gpu\":\"L40S\",\"seed\":" << kSeed
         << ",\"slo_ms\":" << kSloMs
         << ",\"tight_slo_ms\":" << kTightSloMs << ",\"runs\":[\n";
    for (size_t i = 0; i < reports.size(); ++i)
        json << "  " << reports[i].toJson()
             << (i + 1 < reports.size() ? ",\n" : "\n");
    json << "],\"stress\":" << stress.evidence
         << ",\"faults\":" << faults.evidence << "}\n";
    if (!emitReport(argc, argv, json.str()))
        return 1;
    if (!gates_ok) {
        std::fprintf(stderr, "\nerror: serving gates failed (see GATE "
                             "FAIL lines above)\n");
        return 1;
    }
    return 0;
}
