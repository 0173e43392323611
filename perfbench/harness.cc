#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

/** Leaf spans shorter than this stay out of the span file (serving
    records one per scheduler plan and cost lookup); rollups count all. */
constexpr double kMinWrittenLeafS = 20e-6;

thread_local int64_t t_parent = -1;
thread_local int64_t t_op = -1;

std::string
jsonNumber(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** Sorted, merged union of [start, end) intervals, clipped to [lo, hi]. */
double
unionLength(std::vector<std::pair<double, double>> intervals, double lo,
            double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0;
    double cur_start = 0, cur_end = -1;
    bool open = false;
    for (auto [s, e] : intervals) {
        s = std::max(s, lo);
        e = std::min(e, hi);
        if (e <= s)
            continue;
        if (open && s <= cur_end) {
            cur_end = std::max(cur_end, e);
            continue;
        }
        if (open)
            covered += cur_end - cur_start;
        cur_start = s;
        cur_end = e;
        open = true;
    }
    if (open)
        covered += cur_end - cur_start;
    return covered;
}

} // namespace

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
fastest(const std::vector<double> &values)
{
    return values.empty() ? 0
                          : *std::min_element(values.begin(), values.end());
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    rank = std::clamp<size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
clearDir(const std::string &dir)
{
    namespace fs = std::filesystem;
    fs::create_directories(dir);
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        fs::remove_all(entry.path());
}

std::vector<double>
timedLoop(double seconds, int min_reps, const std::function<void()> &op,
          bool rotate_cpus)
{
    cpu_set_t original;
    std::vector<int> cpus;
    if (rotate_cpus && sched_getaffinity(0, sizeof(original), &original) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &original))
                cpus.push_back(cpu);
    std::vector<double> durations;
    const double start = nowS();
    double total = 0;
    // Stop before a repetition that would, at the mean so far, end past
    // the budget: the count of long repetitions stays the same from run
    // to run instead of flipping between n and n + 1.
    while (static_cast<int>(durations.size()) < min_reps ||
           (nowS() - start) + total / static_cast<double>(durations.size()) <=
               seconds) {
        if (!cpus.empty()) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[durations.size() % cpus.size()], &one);
            sched_setaffinity(0, sizeof(one), &one);
        }
        const double t0 = nowS();
        op();
        durations.push_back(nowS() - t0);
        total += durations.back();
    }
    if (!cpus.empty())
        sched_setaffinity(0, sizeof(original), &original);
    return durations;
}

double
timedSetup(int reps, const std::function<void()> &setup)
{
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
        const double t0 = nowS();
        setup();
        times.push_back(nowS() - t0);
    }
    return median(times);
}

void
Result::fail(const std::string &why)
{
    ++failed_;
    if (errors_.size() < 20)
        errors_.push_back(why);
}

void
Result::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = 0;
    }
    metrics_.push_back({name, Metric{value, unit}});
}

double
Result::successRate() const
{
    if (attempted_ <= 0)
        return 0;
    return 1.0 - static_cast<double>(std::min(failed_, attempted_)) /
                     static_cast<double>(attempted_);
}

void
Result::print() const
{
    for (const std::string &error : errors_)
        std::printf("error: %s\n", error.c_str());
    for (const auto &[name, m] : metrics_)
        std::printf("%-34s %20.6f %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += (failed_ == 0 && attempted_ > 0) ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics_) {
        if (!first)
            json += ", ";
        first = false;
        json += "\"" + name + "\": {\"value\": " + jsonNumber(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

int64_t
Tracer::begin(const char *name, int64_t op)
{
    Span span;
    span.name = name;
    span.parent = t_parent;
    span.op = op >= 0 ? op : t_op;
    span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    span.start = nowS();
    std::lock_guard<std::mutex> lock(mutex_);
    span.id = static_cast<int64_t>(spans_.size());
    spans_.push_back(span);
    return span.id;
}

void
Tracer::end(int64_t id)
{
    const double t = nowS();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end = t;
}

std::map<std::string, Tracer::Rollup>
Tracer::rollup() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span &span : spans_)
        if (span.parent >= 0)
            children[static_cast<size_t>(span.parent)].push_back(
                {span.start, span.end});
    std::map<std::string, Rollup> out;
    for (const Span &span : spans_) {
        Rollup &r = out[span.name];
        const double duration = span.end - span.start;
        const auto &kids = children[static_cast<size_t>(span.id)];
        const double covered =
            kids.empty() ? 0 : unionLength(kids, span.start, span.end);
        ++r.count;
        r.total_s += duration;
        r.self_s += duration - covered;
    }
    return out;
}

double
Tracer::coverage(double start, double end) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<double, double>> intervals;
    for (const Span &span : spans_)
        if (std::string(span.name).rfind("bench.", 0) != 0)
            intervals.push_back({span.start, span.end});
    if (end <= start)
        return 0;
    return unionLength(std::move(intervals), start, end) / (end - start);
}

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out)
        return;
    const double origin = spans_.empty() ? 0 : spans_.front().start;
    std::vector<bool> has_children(spans_.size(), false);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            has_children[static_cast<size_t>(s.parent)] = true;
    std::map<uint64_t, int> tids;
    out << "{\"traceEvents\":[\n";
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (!has_children[i] && s.end - s.start < kMinWrittenLeafS)
            continue;
        auto [it, inserted] =
            tids.emplace(s.thread, static_cast<int>(tids.size()));
        (void)inserted;
        out << (first ? "" : ",\n") << "{\"name\":\"" << s.name
            << "\",\"cat\":\""
            << std::string(s.name).substr(0, std::string(s.name).find('.'))
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << it->second
            << ",\"ts\":" << jsonNumber((s.start - origin) * 1e6)
            << ",\"dur\":" << jsonNumber((s.end - s.start) * 1e6)
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"op\":" << s.op << "}}";
        first = false;
    }
    out << "\n]}\n";
}

ScopedSpan::ScopedSpan(Tracer *tracer, const char *name, int64_t op)
    : tracer_(tracer)
{
    if (!tracer_)
        return;
    id_ = tracer_->begin(name, op);
    saved_parent_ = t_parent;
    saved_op_ = t_op;
    t_parent = id_;
    if (op >= 0)
        t_op = op;
}

ScopedSpan::~ScopedSpan()
{
    if (!tracer_)
        return;
    tracer_->end(id_);
    t_parent = saved_parent_;
    t_op = saved_op_;
}

ParentScope::ParentScope(int64_t parent, int64_t op)
    : saved_parent_(t_parent), saved_op_(t_op)
{
    t_parent = parent;
    t_op = op;
}

ParentScope::~ParentScope()
{
    t_parent = saved_parent_;
    t_op = saved_op_;
}

InputRng::InputRng(uint64_t seed) : engine_(seed) {}

uint64_t
InputRng::next()
{
    return engine_();
}

double
InputRng::uniform(double lo, double hi)
{
    const double unit =
        static_cast<double>(engine_() >> 11) * (1.0 / 9007199254740992.0);
    return lo + (hi - lo) * unit;
}

int64_t
InputRng::between(int64_t lo, int64_t hi)
{
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(engine_() % span);
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
traceSummary(const RunConfig &config, const Tracer &tracer,
             double traced_start, double traced_end,
             double untraced_wall_s, LayerValues &values)
{
    const double traced_wall = traced_end - traced_start;
    values["trace_overhead"] =
        untraced_wall_s > 0 ? traced_wall / untraced_wall_s : 0;
    values["layer_coverage"] = tracer.coverage(traced_start, traced_end);
    const std::string path = config.trace_dir + "/" + config.workload +
                             "-seed" + std::to_string(config.seed) +
                             ".trace.json";
    std::filesystem::create_directories(config.trace_dir);
    tracer.write(path);
    std::printf("spans written to %s\n", path.c_str());
}

void
addSpanTimes(const Tracer &tracer, LayerValues &values)
{
    for (const auto &[name, r] : tracer.rollup()) {
        if (name.rfind("bench.", 0) == 0)
            continue;
        if (name.rfind("opt.", 0) == 0)
            values[name + ".s"] += r.total_s;
        else
            values[name + "_s"] += r.total_s;
        if (name.rfind("autotune.", 0) == 0)
            values["autotune.self_s"] += r.self_s;
        if (name == "serving.run")
            values["serving.self_s"] += r.self_s;
    }
}

namespace {

/** Every per-layer metric, in output order, with its unit. */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"kernels.build_s", "s"},
    {"kernels.builds", "count"},
    {"autotune.candidates", "count"},
    {"autotune.self_s", "s"},
    {"compiler.lower_s", "s"},
    {"compiler.compiles", "count"},
    {"compiler.compile_ms.p50", "ms"},
    {"compiler.compile_ms.p99", "ms"},
    {"compiler.lir_instrs", "count"},
    {"opt.pipeline-cpasync.s", "s"},
    {"opt.pipeline-cpasync.changed", "count"},
    {"opt.pipeline-cpasync.lir_instrs", "count"},
    {"opt.sync-elim.s", "s"},
    {"opt.sync-elim.changed", "count"},
    {"opt.sync-elim.lir_instrs", "count"},
    {"opt.dead-tensor.s", "s"},
    {"opt.dead-tensor.changed", "count"},
    {"opt.dead-tensor.lir_instrs", "count"},
    {"opt.addr-hoist.s", "s"},
    {"opt.addr-hoist.changed", "count"},
    {"opt.addr-hoist.lir_instrs", "count"},
    {"cache.fingerprint_s", "s"},
    {"cache.serialize_s", "s"},
    {"cache.deserialize_s", "s"},
    {"cache.hash_s", "s"},
    {"cache.store_s", "s"},
    {"cache.load_s", "s"},
    {"cache.payload_bytes", "bytes"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_ratio", "ratio"},
    {"sim.decode_s", "s"},
    {"sim.decodes", "count"},
    {"sim.decode_fallbacks", "count"},
    {"sim.microop_ratio", "ratio"},
    {"sim.probe_s", "s"},
    {"sim.probes", "count"},
    {"sim.timing_s", "s"},
    {"sim.exec_s", "s"},
    {"sim.launches", "count"},
    {"sim.ops", "count"},
    {"sim.ops_per_s", "1/s"},
    {"runtime.upload_s", "s"},
    {"runtime.download_s", "s"},
    {"llm.cost_calls", "count"},
    {"llm.cost_s", "s"},
    {"serving.run_s", "s"},
    {"serving.self_s", "s"},
    {"serving.scheduler_s", "s"},
    {"serving.plans", "count"},
    {"serving.steps", "count"},
    {"serving.preemptions", "count"},
    {"serving.us_per_step", "us"},
    {"serving.ttft_p50_ms.low", "ms"},
    {"serving.ttft_p99_ms.low", "ms"},
    {"serving.tpot_p99_ms.low", "ms"},
    {"serving.ttft_p50_ms.high", "ms"},
    {"serving.ttft_p99_ms.high", "ms"},
    {"serving.tpot_p99_ms.high", "ms"},
    {"serving.max_rate_rps", "1/s"},
    {"trace_overhead", "ratio"},
    {"layer_coverage", "ratio"},
};

} // namespace

void
emitLayerMetrics(const LayerValues &values, Result &result)
{
    for (const auto &[name, unit] : kLayerMetrics) {
        auto it = values.find(name);
        result.metric(name, it == values.end() ? 0.0 : it->second, unit);
    }
}

} // namespace perfbench
