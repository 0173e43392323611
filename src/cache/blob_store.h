/**
 * @file
 * Shared plumbing of the on-disk stores (kernel_cache.cc, tune_db.cc):
 * environment configuration, the {magic, version, payload size, payload
 * hash} blob header, verify-before-trust reads, and atomic
 * temp-file-plus-rename writes. Both tiers must interpret TILUS_CACHE /
 * TILUS_CACHE_DIR identically and reject damage the same way — that
 * contract lives here exactly once.
 */
#pragma once

#include <cstdint>
#include <string>

namespace tilus {
namespace cache {

/** True when TILUS_CACHE requests the disk tiers off (off/0/false). */
bool cacheDisabledByEnv();

/** TILUS_CACHE_DIR, or ~/.cache/tilus, or /tmp/tilus-cache. */
std::string defaultCacheDir();

/**
 * Blob magic spelling @p tag in the file's first four bytes (the header
 * is little-endian, so "TLKC" packs to 0x434b4c54). The kernel
 * ("TLKC"), tune ("TLTN") and corpus ("TLFZ") magics also name the
 * payload hash: entries hashed with the fingerprint Hasher carry the
 * byte-reversed tags (0x544c4b43 for kernels), read "bad magic" and
 * degrade to a miss. A hash change is marked here and never by a
 * version bump, because the versions feed fingerprints and tune keys.
 */
constexpr uint32_t
blobMagic(const char (&tag)[5])
{
    return static_cast<uint32_t>(static_cast<uint8_t>(tag[0])) |
           static_cast<uint32_t>(static_cast<uint8_t>(tag[1])) << 8 |
           static_cast<uint32_t>(static_cast<uint8_t>(tag[2])) << 16 |
           static_cast<uint32_t>(static_cast<uint8_t>(tag[3])) << 24;
}

/**
 * Content hash guarding blob payloads against corruption: four 64-bit
 * lanes over 32-byte stripes with an xxHash64-style length-mixed
 * finalizer, read a word at a time (several GB/s). Every step is a
 * bijection of the word it consumes and of the running state, so any
 * single-bit flip of a payload changes the digest. This is not the
 * fingerprint Hasher (fingerprint.h): it guards bytes on disk, never
 * names content, so changing it moves no fingerprint or tune key. Its
 * known-answer vectors are pinned in tests/test_cache.cc and in
 * tools/check_fuzz.py, which re-implements it.
 */
uint64_t payloadHash(const std::string &payload);

/** Outcome of readBlobFile. */
enum class BlobRead
{
    kHit,     ///< payload verified and returned
    kMissing, ///< no file — a plain miss
    kCorrupt, ///< file exists but failed verification (see *why)
};

/**
 * Read @p path and verify magic, version, payload size, and payload
 * hash; on kHit fill @p payload. The file is read once, with one
 * readv that scatters the header into a local and the payload straight
 * into @p payload (sized by fstat), and the hash is checked in place.
 * Never throws: truncation, short reads, non-regular files, bit flips,
 * and hostile bytes come back as kCorrupt with a reason in @p why.
 */
BlobRead readBlobFile(const std::string &path, uint32_t magic,
                      uint32_t version, std::string *payload,
                      std::string *why);

/**
 * Write header + payload to a pid-suffixed temp file, fsync it, and
 * rename it into place: readers never observe partial blobs, a torn
 * write can't be published (the rename only follows a successful
 * fsync), and racing writers of one content-addressed path each
 * publish a complete blob of the same content, so last-rename-wins is
 * harmless. Transient failures get a bounded exponential-backoff
 * retry; every failed attempt — including an injected one — unlinks
 * its temp file, so no orphans accumulate. Returns false when the retry budget is exhausted
 * (best-effort callers just skip the store).
 *
 * Fault sites: "cache.disk.read" (read I/O error), "cache.disk.corrupt"
 * (one-bit payload flip), "cache.disk.write" (torn write),
 * "cache.disk.rename" (publish failure). See src/support/fault.h.
 */
bool writeBlobAtomic(const std::string &path, uint32_t magic,
                     uint32_t version, const std::string &payload);

} // namespace cache
} // namespace tilus
