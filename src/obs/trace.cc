#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "obs/build_info.h"
#include "obs/sink.h"

namespace tilus {
namespace obs {

namespace {

int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
fmtTs(double ts_us)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", ts_us);
    return buf;
}

// Per-thread slot into the tracer's buffer table. The epoch check
// invalidates the cached pointer whenever enable() resets the buffers,
// so a stale thread never writes into a freed or recycled buffer.
struct ThreadSlot
{
    uint64_t epoch = 0;
    void *buffer = nullptr;
};

thread_local ThreadSlot t_slot;

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

// ----------------------------------------------------------------- Args

Args &
Args::field(const char *key, const std::string &json)
{
    if (!body_.empty())
        body_ += ',';
    body_ += '"';
    body_ += jsonEscape(key);
    body_ += "\":";
    body_ += json;
    return *this;
}

Args &
Args::add(const char *key, const std::string &value)
{
    return field(key, '"' + jsonEscape(value) + '"');
}

Args &
Args::add(const char *key, const char *value)
{
    return add(key, std::string(value));
}

Args &
Args::add(const char *key, int64_t value)
{
    return field(key, std::to_string(value));
}

Args &
Args::add(const char *key, double value)
{
    return field(key, jsonNum(value));
}

Args &
Args::add(const char *key, bool value)
{
    return field(key, value ? "true" : "false");
}

std::string
Args::render() const
{
    return "{" + body_ + "}";
}

// --------------------------------------------------------------- Tracer

Tracer &
Tracer::instance()
{
    // Leaked on purpose; see armFromEnv.
    static Tracer *tracer = [] {
        Tracer *t = new Tracer();
        const std::string path =
            armFromEnv("TILUS_TRACE", [] { instance().flush(); });
        if (!path.empty())
            t->enable(path);
        return t;
    }();
    return *tracer;
}

TraceEvent
Tracer::makeEvent(char ph, int32_t pid, int32_t tid, double ts_us,
                  const char *cat, const std::string &name,
                  const Args &args, uint64_t id)
{
    return TraceEvent{ph, pid, tid, id, ts_us, cat, name,
                      args.empty() ? "" : args.render()};
}

void
Tracer::enable(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    path_ = path;
    buffers_.clear();
    meta_events_.clear();
    metadata_.clear();
    metadata_.emplace_back("build_info", buildInfo());
    next_virtual_pid_.store(2, std::memory_order_relaxed);
    clock_anchor_ns_.store(steadyNowNs(), std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    enabled_.store(true, std::memory_order_release);
    meta_events_.push_back(
        makeEvent('M', 1, 0, 0, "__metadata", "process_name",
                  Args().add("name", "tilus (wall clock)")));
}

void
Tracer::disable()
{
    enabled_.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.clear();
    meta_events_.clear();
    metadata_.clear();
    path_.clear();
    epoch_.fetch_add(1, std::memory_order_release);
}

void
Tracer::setMetadata(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &kv : metadata_) {
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    }
    metadata_.emplace_back(key, value);
}

double
Tracer::nowUs() const
{
    const int64_t anchor = clock_anchor_ns_.load(std::memory_order_relaxed);
    return static_cast<double>(steadyNowNs() - anchor) / 1000.0;
}

Tracer::ThreadBuffer *
Tracer::threadBuffer()
{
    const uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (t_slot.buffer && t_slot.epoch == epoch)
        return static_cast<ThreadBuffer *>(t_slot.buffer);

    std::lock_guard<std::mutex> lock(mutex_);
    // Re-check under the lock: enable()/disable() may have bumped the
    // epoch again between the load above and acquiring the mutex.
    if (!enabled_.load(std::memory_order_relaxed))
        return nullptr;
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = static_cast<int32_t>(buffers_.size());
    ThreadBuffer *raw = buffer.get();
    buffers_.push_back(std::move(buffer));

    meta_events_.push_back(makeEvent(
        'M', 1, raw->tid, 0, "__metadata", "thread_name",
        Args().add("name", "thread " + std::to_string(raw->tid))));

    t_slot.epoch = epoch_.load(std::memory_order_relaxed);
    t_slot.buffer = raw;
    return raw;
}

void
Tracer::emit(TraceEvent event)
{
    if (!enabled())
        return;
    ThreadBuffer *buffer = threadBuffer();
    if (!buffer)
        return;
    if (static_cast<int64_t>(buffer->events.size()) >= kMaxEventsPerThread) {
        // Drop-newest keeps already-recorded B/E pairs balanced;
        // drop-oldest would orphan E events.
        ++buffer->dropped;
        return;
    }
    if (event.tid < 0)
        event.tid = buffer->tid;
    buffer->events.push_back(std::move(event));
}

void
Tracer::emitMeta(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    meta_events_.push_back(std::move(event));
}

void
Tracer::begin(const char *cat, const std::string &name)
{
    if (enabled())
        emit(makeEvent('B', 1, -1, nowUs(), cat, name));
}

void
Tracer::end(const char *cat, const std::string &name, const Args &args)
{
    if (enabled())
        emit(makeEvent('E', 1, -1, nowUs(), cat, name, args));
}

void
Tracer::instant(const char *cat, const std::string &name, const Args &args)
{
    if (enabled())
        emit(makeEvent('i', 1, -1, nowUs(), cat, name, args));
}

int
Tracer::virtualProcess(const std::string &name)
{
    if (!enabled())
        return 0;
    const int pid = next_virtual_pid_.fetch_add(1, std::memory_order_relaxed);
    emitMeta(makeEvent('M', pid, 0, 0, "__metadata", "process_name",
                       Args().add("name", name + " (virtual clock)")));
    return pid;
}

void
Tracer::virtualBegin(int pid, const char *cat, const std::string &name,
                     double ts_ms, const Args &args)
{
    emit(makeEvent('B', pid, 0, ts_ms * 1000.0, cat, name, args));
}

void
Tracer::virtualEnd(int pid, const char *cat, const std::string &name,
                   double ts_ms, const Args &args)
{
    emit(makeEvent('E', pid, 0, ts_ms * 1000.0, cat, name, args));
}

void
Tracer::virtualCounter(int pid, const char *cat, const std::string &name,
                       double ts_ms, double value)
{
    emit(makeEvent('C', pid, 0, ts_ms * 1000.0, cat, name,
                   Args().add("value", value)));
}

void
Tracer::asyncBegin(int pid, const char *cat, const std::string &name,
                   uint64_t id, double ts_ms)
{
    emit(makeEvent('b', pid, 0, ts_ms * 1000.0, cat, name, {}, id));
}

void
Tracer::asyncInstant(int pid, const char *cat, const std::string &name,
                     uint64_t id, double ts_ms)
{
    emit(makeEvent('n', pid, 0, ts_ms * 1000.0, cat, name, {}, id));
}

void
Tracer::asyncEnd(int pid, const char *cat, const std::string &name,
                 uint64_t id, double ts_ms)
{
    emit(makeEvent('e', pid, 0, ts_ms * 1000.0, cat, name, {}, id));
}

int64_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    int64_t n = 0;
    for (const auto &buffer : buffers_)
        n += static_cast<int64_t>(buffer->events.size());
    return n;
}

int
Tracer::threadBufferCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(buffers_.size());
}

int64_t
Tracer::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    int64_t n = 0;
    for (const auto &buffer : buffers_)
        n += buffer->dropped;
    return n;
}

namespace {

// Event JSON with keys in alphabetical order: args, cat, id, name, ph,
// pid, tid, ts. "args" is omitted when empty, "id" only on async
// phases. Pinned by the golden schema test.
void
renderEvent(std::ostringstream &oss, const TraceEvent &e)
{
    oss << '{';
    if (!e.args_json.empty())
        oss << "\"args\":" << e.args_json << ',';
    oss << "\"cat\":\"" << jsonEscape(e.cat) << "\",";
    if (e.ph == 'b' || e.ph == 'n' || e.ph == 'e')
        oss << "\"id\":\"" << e.id << "\",";
    oss << "\"name\":\"" << jsonEscape(e.name) << "\",\"ph\":\"" << e.ph
        << "\",\"pid\":" << e.pid << ",\"tid\":" << e.tid
        << ",\"ts\":" << fmtTs(e.ts_us) << '}';
}

} // namespace

std::string
Tracer::document() const
{
    std::lock_guard<std::mutex> lock(mutex_);

    std::vector<const TraceEvent *> events;
    int64_t dropped = 0;
    for (const auto &buffer : buffers_) {
        dropped += buffer->dropped;
        for (const auto &e : buffer->events)
            events.push_back(&e);
    }
    // Stable sort keeps emission order for equal timestamps, which is
    // what preserves B-before-E for zero-length spans.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent *a, const TraceEvent *b) {
                         if (a->pid != b->pid)
                             return a->pid < b->pid;
                         if (a->tid != b->tid)
                             return a->tid < b->tid;
                         return a->ts_us < b->ts_us;
                     });

    std::ostringstream oss;
    oss << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
    bool first = true;
    for (const auto &[key, value] : metadata_) {
        oss << (first ? "" : ",") << '"' << jsonEscape(key) << "\":\""
            << jsonEscape(value) << '"';
        first = false;
    }
    if (dropped > 0)
        oss << (first ? "" : ",") << "\"dropped_events\":\"" << dropped
            << '"';
    oss << "},\"traceEvents\":[";
    first = true;
    for (const auto &meta : meta_events_) {
        if (!first)
            oss << ',';
        oss << '\n';
        renderEvent(oss, meta);
        first = false;
    }
    for (const TraceEvent *e : events) {
        if (!first)
            oss << ',';
        oss << '\n';
        renderEvent(oss, *e);
        first = false;
    }
    oss << "\n]}\n";
    return oss.str();
}

bool
Tracer::flush()
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        path = path_;
    }
    return !path.empty() && writeDocument(path, document());
}

// ----------------------------------------------------------------- Span

Span::Span(const char *cat, const std::string &name)
    : live_(Tracer::instance().enabled())
{
    if (live_) {
        cat_ = cat;
        name_ = name;
        Tracer::instance().begin(cat_, name_);
    }
}

Span::Span(const char *cat, const char *name)
    : live_(Tracer::instance().enabled())
{
    if (live_) {
        cat_ = cat;
        name_ = name;
        Tracer::instance().begin(cat_, name_);
    }
}

Span::~Span()
{
    if (live_)
        Tracer::instance().end(cat_, name_, args_);
}

} // namespace obs
} // namespace tilus
