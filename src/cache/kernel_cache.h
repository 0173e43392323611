/**
 * @file
 * The on-disk tier of the two-tier kernel cache.
 *
 * The in-memory tier lives in runtime::Runtime (fingerprint-keyed map of
 * compiled kernels plus their pre-decoded micro-op programs); this class
 * owns the persistent artifact store that survives the process:
 *
 *     $TILUS_CACHE_DIR/kernels/<fingerprint>.lirk
 *
 * Configuration comes from the environment, read once per process:
 *  - TILUS_CACHE_DIR: cache root (default ~/.cache/tilus, or
 *    /tmp/tilus-cache when no home directory is available);
 *  - TILUS_CACHE=off|0|false: disable the disk tier entirely (the
 *    in-memory tier is unaffected).
 *
 * Robustness contract: a corrupt, truncated, or version-mismatched entry
 * — and any I/O failure — degrades to a cache miss, never to a crash or
 * a wrong kernel. Writes go to a process-unique temporary file and are
 * renamed into place, so concurrent processes never observe a partial
 * artifact. Every payload carries a header with magic, format version,
 * size, and content hash; load() verifies all four before
 * deserializing.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "cache/blob_store.h"
#include "cache/fingerprint.h"
#include "lir/lir.h"

namespace tilus {
namespace cache {

/** Blob magic of kernel entries (see blob_store.h). */
constexpr uint32_t kKernelMagic = blobMagic("TLKC");

/** Counters exposed for tests, benches, and cache diagnostics. */
struct CacheStats
{
    int64_t disk_hits = 0;   ///< load() returned a kernel
    int64_t disk_misses = 0; ///< no entry (or disabled cache)
    int64_t disk_errors = 0; ///< entry present but rejected/corrupt
    int64_t stores = 0;      ///< artifacts written
};

/** The persistent kernel artifact store (see file header). */
class KernelCache
{
  public:
    /** Process-wide instance configured from the environment. */
    static KernelCache &instance();

    /**
     * A cache rooted at @p dir; @p enabled false turns every load into
     * a miss and every store into a no-op (the TILUS_CACHE=off path).
     */
    explicit KernelCache(std::string dir, bool enabled = true);

    bool enabled() const { return enabled_; }
    const std::string &dir() const { return dir_; }

    /**
     * Fetch the kernel cached under @p fp, or nullptr on miss.
     * @p version lets tests simulate format bumps; entries written under
     * any other version miss (and count as disk_errors).
     */
    std::unique_ptr<lir::Kernel>
    load(const Fingerprint &fp, uint32_t version = kCacheFormatVersion);

    /** Persist @p kernel under @p fp (best-effort; errors are absorbed). */
    void store(const Fingerprint &fp, const lir::Kernel &kernel,
               uint32_t version = kCacheFormatVersion);

    /** Artifact path for a fingerprint (exists or not). */
    std::string entryPath(const Fingerprint &fp) const;

    CacheStats stats() const;

  private:
    std::string dir_;
    bool enabled_;
    mutable std::mutex mutex_;
    CacheStats stats_;
};

} // namespace cache
} // namespace tilus
