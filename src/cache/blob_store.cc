#include "cache/blob_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <filesystem>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include "cache/codec.h"
#include "obs/metrics.h"
#include "support/fault.h"
#include "support/retry.h"

namespace tilus {
namespace cache {

namespace {

constexpr size_t kHeaderBytes = 24; // magic, version, size, hash

} // namespace

bool
cacheDisabledByEnv()
{
    const char *env = std::getenv("TILUS_CACHE");
    if (!env)
        return false;
    std::string v(env);
    return v == "off" || v == "0" || v == "false" || v == "OFF";
}

std::string
defaultCacheDir()
{
    if (const char *env = std::getenv("TILUS_CACHE_DIR"))
        return env;
    if (const char *home = std::getenv("HOME"))
        return std::string(home) + "/.cache/tilus";
    return "/tmp/tilus-cache";
}

namespace {

/// @name payloadHash constants and steps (the xxHash64 primes).
/// @{
constexpr uint64_t kP1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kP3 = 0x165667b19e3779f9ull;
constexpr uint64_t kP4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t kP5 = 0x27d4eb2f165667c5ull;

inline uint64_t
rotl64(uint64_t v, int r)
{
    return (v << r) | (v >> (64 - r));
}

/** One lane step: a bijection of @p acc and of @p word (odd multiplies,
    an add and a rotate). */
inline uint64_t
lane(uint64_t acc, uint64_t word)
{
    return rotl64(acc + word * kP2, 31) * kP1;
}
/// @}

} // namespace

uint64_t
payloadHash(const std::string &payload)
{
    const char *p = payload.data();
    const char *const end = p + payload.size();
    uint64_t v[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
    for (; end - p >= 32; p += 32)
        for (int i = 0; i < 4; ++i)
            v[i] = lane(v[i], loadLE<uint64_t>(p + 8 * i));
    // Fold the lanes in one at a time. xxHash64 first sums rotated
    // lanes, which lets a change in one lane cancel against its own
    // merge round; a chain of xor-multiply steps cannot.
    uint64_t h = kP5;
    for (uint64_t lane_v : v)
        h = (h ^ lane(0, lane_v)) * kP1 + kP4;
    h += payload.size();
    for (; end - p >= 8; p += 8)
        h = rotl64(h ^ lane(0, loadLE<uint64_t>(p)), 27) * kP1 + kP4;
    if (end - p >= 4) {
        h = rotl64(h ^ loadLE<uint32_t>(p) * kP1, 23) * kP2 + kP3;
        p += 4;
    }
    for (; p < end; ++p)
        h = rotl64(h ^ static_cast<uint8_t>(*p) * kP5, 11) * kP1;
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
}

namespace {

/**
 * readv until every byte of @p iov is filled; false on an I/O error or
 * on end of file before that (a file that shrank under us).
 */
bool
readFull(int fd, iovec *iov, int count)
{
    for (;;) {
        for (; count > 0 && iov->iov_len == 0; ++iov)
            --count;
        if (count == 0)
            return true;
        const ssize_t got = ::readv(fd, iov, count);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;
        size_t left = static_cast<size_t>(got);
        for (; count > 0 && left >= iov->iov_len; ++iov, --count)
            left -= iov->iov_len;
        if (count > 0) {
            iov->iov_base = static_cast<char *>(iov->iov_base) + left;
            iov->iov_len -= left;
        }
    }
}

BlobRead
readBlobFd(int fd, uint32_t magic, uint32_t version,
           std::string *payload, std::string *why)
{
    auto corrupt = [&](const char *reason) {
        if (why)
            *why = reason;
        return BlobRead::kCorrupt;
    };
    if (fault::maybeFail("cache.disk.read"))
        return corrupt("injected read I/O error");
    struct stat st;
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode))
        return corrupt("not a regular file");

    // One read: the header lands in a local, the payload directly in
    // the string that is handed back.
    const size_t size = static_cast<size_t>(st.st_size);
    char header[kHeaderBytes];
    const size_t header_size = std::min(size, kHeaderBytes);
    std::string body(size - header_size, '\0');
    iovec iov[2] = {{header, header_size}, {body.data(), body.size()}};
    if (!readFull(fd, iov, 2))
        return corrupt("short read");

    // Silent media corruption: flip one bit mid-blob and let the normal
    // verification catch it — exercises the same reject path real
    // damage would.
    if (size > 0 && fault::maybeFail("cache.disk.corrupt")) {
        const size_t mid = size / 2;
        (mid < kHeaderBytes ? header[mid]
                            : body[mid - kHeaderBytes]) ^= 0x01;
    }
    if (size < kHeaderBytes)
        return corrupt("truncated header");
    if (loadLE<uint32_t>(header) != magic)
        return corrupt("bad magic");
    if (loadLE<uint32_t>(header + 4) != version)
        return corrupt("format version mismatch");
    if (loadLE<uint64_t>(header + 8) != body.size())
        return corrupt("truncated payload");
    if (payloadHash(body) != loadLE<uint64_t>(header + 16))
        return corrupt("payload hash mismatch");
    *payload = std::move(body);
    return BlobRead::kHit;
}

} // namespace

BlobRead
readBlobFile(const std::string &path, uint32_t magic, uint32_t version,
             std::string *payload, std::string *why)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return BlobRead::kMissing;
    const BlobRead result = readBlobFd(fd, magic, version, payload, why);
    ::close(fd);
    return result;
}

namespace {

/**
 * One write+fsync+rename attempt. Any failure — real or injected —
 * unlinks the temp file before returning, so a failed attempt never
 * leaves an orphan for the retry (or a later process) to trip over.
 */
bool
writeBlobOnce(const std::string &tmp, const std::string &path,
              const std::string &blob)
{
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;

    // An injected write failure stops after half the bytes: the torn
    // temp file is exactly what a full disk or a crash would leave, so
    // the cleanup path gets tested against realistic damage.
    const bool injected = fault::maybeFail("cache.disk.write");
    const size_t limit = injected ? blob.size() / 2 : blob.size();

    bool ok = true;
    size_t off = 0;
    while (off < limit) {
        const ssize_t n = ::write(fd, blob.data() + off, limit - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ok = false;
            break;
        }
        off += static_cast<size_t>(n);
    }
    if (injected)
        ok = false;
    // fsync before rename: without it a power cut after the rename can
    // surface a zero-length or torn entry that only the content hash
    // catches; with it the rename only ever publishes durable bytes.
    if (ok && ::fsync(fd) != 0)
        ok = false;
    if (::close(fd) != 0)
        ok = false;
    if (!ok) {
        ::unlink(tmp.c_str());
        return false;
    }

    if (fault::maybeFail("cache.disk.rename")) {
        ::unlink(tmp.c_str());
        return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace

bool
writeBlobAtomic(const std::string &path, uint32_t magic,
                uint32_t version, const std::string &payload)
{
    std::string blob;
    blob.reserve(kHeaderBytes + payload.size());
    putU32(blob, magic);
    putU32(blob, version);
    putU64(blob, payload.size());
    putU64(blob, payloadHash(payload));
    blob += payload;

    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));

    // Transient failures (injected or real) get a bounded retry with
    // exponential backoff; persistent ones surface as false and the
    // caller skips the store.
    support::RetryPolicy policy;
    return support::retryWithBackoff(policy, [&](int attempt) {
        if (attempt > 1)
            obs::Registry::instance()
                .counter("cache_blob_write_retries_total")
                .add(1);
        return writeBlobOnce(tmp, path, blob);
    });
}

} // namespace cache
} // namespace tilus
