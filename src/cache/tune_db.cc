#include "cache/tune_db.h"

#include <cstring>
#include <filesystem>

#include "cache/blob_store.h"
#include "cache/codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace tilus {
namespace cache {

namespace {

constexpr uint32_t kMagic = blobMagic("TLTN");

/** Sane ceiling on the stored candidate list (sweeps are ~200). */
constexpr int64_t kMaxCandidates = 1 << 20;

void
encodeConfig(std::string &out, const kernels::MatmulConfig &c)
{
    out.push_back(static_cast<char>(c.wdtype.kind()));
    out.push_back(static_cast<char>(c.wdtype.bits()));
    out.push_back(static_cast<char>(c.wdtype.exponentBits()));
    out.push_back(static_cast<char>(c.wdtype.mantissaBits()));
    putI64(out, c.n);
    putI64(out, c.k);
    putI64(out, c.bm);
    putI64(out, c.bn);
    putI64(out, c.bk);
    putI64(out, c.warp_m);
    putI64(out, c.warp_n);
    putI64(out, c.simt_warps);
    putI64(out, c.stages);
    out.push_back(c.use_tensor_cores ? 1 : 0);
    out.push_back(c.transform_weights ? 1 : 0);
    putI64(out, c.group_size);
    out.push_back(c.convert_via_smem ? 1 : 0);
}

bool
decodeConfig(ByteReader &r, kernels::MatmulConfig &c)
{
    TypeKind kind = static_cast<TypeKind>(r.u8());
    int bits = r.u8();
    int exponent = r.u8();
    int mantissa = r.u8();
    try {
        switch (kind) {
          case TypeKind::kInt:
            c.wdtype = DataType::makeInt(bits);
            break;
          case TypeKind::kUInt:
            c.wdtype = DataType::makeUInt(bits);
            break;
          case TypeKind::kFloat:
            c.wdtype = DataType::makeFloat(bits, exponent, mantissa);
            break;
          default:
            return false;
        }
    } catch (const TilusError &) {
        return false;
    }
    c.n = r.i64();
    c.k = r.i64();
    c.bm = r.i64();
    c.bn = r.i64();
    c.bk = r.i64();
    c.warp_m = static_cast<int>(r.i64());
    c.warp_n = static_cast<int>(r.i64());
    c.simt_warps = static_cast<int>(r.i64());
    c.stages = static_cast<int>(r.i64());
    c.use_tensor_cores = r.u8() != 0;
    c.transform_weights = r.u8() != 0;
    c.group_size = r.i64();
    c.convert_via_smem = r.u8() != 0;
    return r.ok();
}

void
encodeBreakdown(std::string &out, const sim::LatencyBreakdown &l)
{
    putF64(out, l.total_us);
    putF64(out, l.dram_us);
    putF64(out, l.l2_us);
    putF64(out, l.tc_us);
    putF64(out, l.simt_us);
    putF64(out, l.alu_us);
    putF64(out, l.smem_us);
    putF64(out, l.serial_us);
    putF64(out, l.launch_us);
    out.push_back(l.pipelined ? 1 : 0);
    putI64(out, l.blocks);
    putF64(out, l.occupancy_blocks_per_sm);
}

void
decodeBreakdown(ByteReader &r, sim::LatencyBreakdown &l)
{
    l.total_us = r.f64();
    l.dram_us = r.f64();
    l.l2_us = r.f64();
    l.tc_us = r.f64();
    l.simt_us = r.f64();
    l.alu_us = r.f64();
    l.smem_us = r.f64();
    l.serial_us = r.f64();
    l.launch_us = r.f64();
    l.pipelined = r.u8() != 0;
    l.blocks = r.i64();
    l.occupancy_blocks_per_sm = r.f64();
}

std::string
encodeRecord(const TuneRecord &record)
{
    std::string out;
    encodeConfig(out, record.config);
    encodeBreakdown(out, record.latency);
    putI64(out, record.candidates_tried);
    putI64(out, static_cast<int64_t>(record.candidates.size()));
    for (const TuneCandidate &cand : record.candidates) {
        encodeConfig(out, cand.config);
        encodeBreakdown(out, cand.latency);
    }
    return out;
}

std::optional<TuneRecord>
decodeRecord(const std::string &payload)
{
    ByteReader r(payload);
    TuneRecord record;
    if (!decodeConfig(r, record.config))
        return std::nullopt;
    decodeBreakdown(r, record.latency);
    record.candidates_tried = static_cast<int>(r.i64());
    int64_t count = r.i64();
    if (!r.ok() || count < 0 || count > kMaxCandidates)
        return std::nullopt;
    record.candidates.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
        TuneCandidate cand;
        if (!decodeConfig(r, cand.config))
            return std::nullopt;
        decodeBreakdown(r, cand.latency);
        record.candidates.push_back(std::move(cand));
    }
    if (!r.atEnd())
        return std::nullopt;
    return record;
}

} // namespace

TuneDb &
TuneDb::instance()
{
    static TuneDb db(defaultCacheDir(), !cacheDisabledByEnv());
    return db;
}

TuneDb::TuneDb(std::string dir, bool enabled)
    : dir_(std::move(dir)), enabled_(enabled)
{
    if (!enabled_)
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_ + "/tune", ec);
    if (ec) {
        warn("tune db disabled: cannot create " + dir_ + ": " +
             ec.message());
        enabled_ = false;
    }
}

std::string
TuneDb::entryPath(const Fingerprint &key) const
{
    return dir_ + "/tune/" + key.hex() + ".tune";
}

std::optional<TuneRecord>
TuneDb::load(const Fingerprint &key)
{
    obs::Span span("cache", "tune-db-load");
    if (span.live())
        span.arg("key", key.hex());
    auto miss = [this, &span]() -> std::optional<TuneRecord> {
        obs::Registry::instance().counter("tune_db_cold_total").add();
        span.arg("outcome", "cold");
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.disk_misses;
        return std::nullopt;
    };
    if (!enabled_)
        return miss();
    std::string payload, why;
    switch (readBlobFile(entryPath(key), kMagic, kTuneDbVersion,
                         &payload, &why)) {
      case BlobRead::kMissing:
        return miss();
      case BlobRead::kCorrupt:
        break; // rejected below
      case BlobRead::kHit:
        if (std::optional<TuneRecord> record = decodeRecord(payload)) {
            obs::Registry::instance()
                .counter("tune_db_warm_total")
                .add();
            span.arg("outcome", "warm");
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.disk_hits;
            return record;
        }
        why = "malformed record";
        break;
    }
    warn("tune db entry " + key.hex() + " rejected: " + why);
    obs::Registry::instance().counter("tune_db_error_total").add();
    span.arg("outcome", "error");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.disk_errors;
    return std::nullopt;
}

void
TuneDb::store(const Fingerprint &key, const TuneRecord &record)
{
    if (!enabled_)
        return;
    if (!writeBlobAtomic(entryPath(key), kMagic, kTuneDbVersion,
                         encodeRecord(record)))
        return;
    obs::Registry::instance().counter("tune_db_store_total").add();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stores;
}

CacheStats
TuneDb::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace cache
} // namespace tilus
