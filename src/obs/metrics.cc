#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/sink.h"
#include "obs/trace.h"

namespace tilus {
namespace obs {

namespace {

std::string
fmtDouble(double v)
{
    // Integral values print without an exponent or trailing zeros so
    // the JSON dump diffs cleanly; everything else gets %.6g.
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    return jsonNum(v);
}

} // namespace

Registry &
Registry::instance()
{
    // Leaked on purpose; see armFromEnv.
    static Registry *registry = [] {
        Registry *r = new Registry();
        r->exit_path_ = armFromEnv("TILUS_METRICS", [] {
            const Registry &self = instance();
            self.writeFile(self.exit_path_);
        });
        return r;
    }();
    return *registry;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

int64_t
Registry::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second->value();
}

double
Registry::gaugeValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0 : it->second->value();
}

double
Histogram::bucketBound(int i)
{
    return std::ldexp(1.0, i);
}

double
Histogram::quantile(double pct) const
{
    const int64_t total = count();
    if (total <= 0)
        return 0.0;
    const double clamped = std::min(std::max(pct, 0.0), 100.0);
    // Type-7 rank (matches support/percentile.h): the fractional
    // order-statistic index in [0, total-1].
    const double rank =
        clamped / 100.0 * static_cast<double>(total - 1);
    int64_t cum = 0;
    double last_bound = 0.0;
    for (int i = 0; i < kBuckets; ++i) {
        const int64_t n = bucketCount(i);
        if (n == 0)
            continue;
        if (rank < static_cast<double>(cum + n)) {
            const double lo = i == 0 ? 0.0 : bucketBound(i - 1);
            const double hi = bucketBound(i);
            // Place the n samples at the centers of n equal slices of
            // the bucket: a lone sample sits at the midpoint, and the
            // estimate interpolates linearly with the in-bucket rank.
            const double within =
                (rank - static_cast<double>(cum) + 0.5) /
                static_cast<double>(n);
            return lo + (hi - lo) * std::min(within, 1.0);
        }
        cum += n;
        last_bound = bucketBound(i);
    }
    // A racing observe bumped count before its bucket: report the
    // highest populated bound.
    return last_bound;
}

std::string
Registry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream oss;
    oss << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        oss << (first ? "" : ",") << "\"" << name
            << "\":" << c->value();
        first = false;
    }
    oss << "},\"gauges\":{";
    first = true;
    for (const auto &[name, g] : gauges_) {
        oss << (first ? "" : ",") << "\"" << name
            << "\":" << fmtDouble(g->value());
        first = false;
    }
    oss << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms_) {
        oss << (first ? "" : ",") << "\"" << name
            << "\":{\"count\":" << h->count()
            << ",\"sum\":" << fmtDouble(h->sum())
            << ",\"p50\":" << fmtDouble(h->quantile(50))
            << ",\"p95\":" << fmtDouble(h->quantile(95))
            << ",\"p99\":" << fmtDouble(h->quantile(99))
            << ",\"buckets\":[";
        bool bfirst = true;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
            if (h->bucketCount(i) == 0)
                continue;
            oss << (bfirst ? "" : ",") << "["
                << fmtDouble(Histogram::bucketBound(i)) << ","
                << h->bucketCount(i) << "]";
            bfirst = false;
        }
        oss << "]}";
        first = false;
    }
    oss << "}}";
    return oss.str();
}

std::string
Registry::toPrometheus() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream oss;
    for (const auto &[name, c] : counters_) {
        oss << "# TYPE tilus_" << name << " counter\n"
            << "tilus_" << name << " " << c->value() << "\n";
    }
    for (const auto &[name, g] : gauges_) {
        oss << "# TYPE tilus_" << name << " gauge\n"
            << "tilus_" << name << " " << fmtDouble(g->value()) << "\n";
    }
    for (const auto &[name, h] : histograms_) {
        oss << "# TYPE tilus_" << name << " histogram\n";
        int64_t cumulative = 0;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
            if (h->bucketCount(i) == 0)
                continue;
            cumulative += h->bucketCount(i);
            oss << "tilus_" << name << "_bucket{le=\""
                << fmtDouble(Histogram::bucketBound(i)) << "\"} "
                << cumulative << "\n";
        }
        oss << "tilus_" << name << "_bucket{le=\"+Inf\"} " << h->count()
            << "\n"
            << "tilus_" << name << "_sum " << fmtDouble(h->sum()) << "\n"
            << "tilus_" << name << "_count " << h->count() << "\n";
        // Bucket-estimated tails as companion gauges (a histogram
        // family cannot legally carry quantile-labelled samples).
        const std::pair<double, const char *> tails[] = {
            {50, "_p50"}, {95, "_p95"}, {99, "_p99"}};
        for (const auto &[pct, suffix] : tails) {
            oss << "# TYPE tilus_" << name << suffix << " gauge\n"
                << "tilus_" << name << suffix << " "
                << fmtDouble(h->quantile(pct)) << "\n";
        }
    }
    return oss.str();
}

bool
Registry::writeFile(const std::string &path) const
{
    const bool prom = path.size() >= 5 &&
                      path.compare(path.size() - 5, 5, ".prom") == 0;
    return writeDocument(path, prom ? toPrometheus() : toJson() + "\n");
}

void
Registry::zeroAllForTest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, c] : counters_)
        c->zero();
    for (auto &[name, g] : gauges_)
        g->zero();
    for (auto &[name, h] : histograms_)
        h->zero();
}

} // namespace obs
} // namespace tilus
