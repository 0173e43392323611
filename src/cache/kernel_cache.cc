#include "cache/kernel_cache.h"

#include <filesystem>

#include "cache/blob_store.h"
#include "cache/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace tilus {
namespace cache {

KernelCache &
KernelCache::instance()
{
    static KernelCache cache(defaultCacheDir(), !cacheDisabledByEnv());
    return cache;
}

KernelCache::KernelCache(std::string dir, bool enabled)
    : dir_(std::move(dir)), enabled_(enabled)
{
    if (!enabled_)
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_ + "/kernels", ec);
    if (ec) {
        warn("kernel cache disabled: cannot create " + dir_ + ": " +
             ec.message());
        enabled_ = false;
    }
}

std::string
KernelCache::entryPath(const Fingerprint &fp) const
{
    return dir_ + "/kernels/" + fp.hex() + ".lirk";
}

std::unique_ptr<lir::Kernel>
KernelCache::load(const Fingerprint &fp, uint32_t version)
{
    obs::Span span("cache", "kernel-cache-load");
    if (span.live())
        span.arg("fingerprint", fp.hex());
    auto miss = [this, &span] {
        obs::Registry::instance()
            .counter("kernel_cache_disk_miss_total")
            .add();
        span.arg("outcome", "miss");
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.disk_misses;
        return nullptr;
    };
    if (!enabled_)
        return miss();
    std::string payload, why;
    switch (readBlobFile(entryPath(fp), kKernelMagic, version, &payload,
                         &why)) {
      case BlobRead::kMissing:
        return miss();
      case BlobRead::kCorrupt:
        break; // rejected below
      case BlobRead::kHit:
        try {
            auto kernel =
                std::make_unique<lir::Kernel>(deserializeKernel(payload));
            obs::Registry::instance()
                .counter("kernel_cache_disk_hit_total")
                .add();
            span.arg("outcome", "hit");
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.disk_hits;
            return kernel;
        } catch (const TilusError &e) {
            why = e.what();
        }
        break;
    }
    warn("kernel cache entry " + fp.hex() + " rejected: " + why);
    obs::Registry::instance()
        .counter("kernel_cache_disk_error_total")
        .add();
    span.arg("outcome", "error");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.disk_errors;
    return nullptr;
}

void
KernelCache::store(const Fingerprint &fp, const lir::Kernel &kernel,
                   uint32_t version)
{
    if (!enabled_)
        return;
    if (!writeBlobAtomic(entryPath(fp), kKernelMagic, version,
                         serializeKernel(kernel)))
        return;
    obs::Registry::instance().counter("kernel_cache_store_total").add();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stores;
}

CacheStats
KernelCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace cache
} // namespace tilus
