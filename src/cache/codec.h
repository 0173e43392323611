/**
 * @file
 * The one little-endian byte codec of src/cache/. Every on-disk
 * encoding in the subsystem — kernel payloads (serialize.cc), tune
 * records (tune_db.cc), and blob headers (blob_store.cc) — goes through
 * these primitives, so byte order and bounds semantics cannot diverge
 * between the tiers.
 *
 * Two reader styles exist on purpose: ByteReader flags overruns via
 * ok() and returns zeros (for fixed-shape records where the caller
 * checks once at the end), while serialize.cc's payload Reader throws
 * CacheFormatError mid-stream (variable-shape payloads where a bad tag
 * must stop the parse immediately). Both consume these exact encodings.
 *
 * Multi-byte values move as one memcpy of the host word, so the host
 * must be little-endian; the static_assert below keeps the on-disk
 * format explicit instead of silently host-ordered.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "src/cache/ encodes little-endian by copying host words");

namespace tilus {
namespace cache {

/** Load a little-endian word from @p p (no alignment needed). */
template <typename T>
inline T
loadLE(const char *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

/// @name Little-endian appenders.
/// @{
inline void
putU8(std::string &out, uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

inline void
putU32(std::string &out, uint32_t v)
{
    char bytes[4];
    std::memcpy(bytes, &v, 4);
    out.append(bytes, 4);
}

inline void
putU64(std::string &out, uint64_t v)
{
    char bytes[8];
    std::memcpy(bytes, &v, 8);
    out.append(bytes, 8);
}

inline void
putI64(std::string &out, int64_t v)
{
    putU64(out, static_cast<uint64_t>(v));
}

inline void
putF64(std::string &out, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    putU64(out, bits);
}
/// @}

/**
 * Sequential little-endian reader for fixed-shape records: overruns
 * clear ok() and return zeros instead of throwing, so a caller decodes
 * the whole record and checks `atEnd()` once.
 */
class ByteReader
{
  public:
    explicit ByteReader(const std::string &data) : data_(data) {}

    bool ok() const { return ok_; }

    uint8_t u8() { return word<uint8_t>(); }
    uint32_t u32() { return word<uint32_t>(); }
    uint64_t u64() { return word<uint64_t>(); }

    int64_t i64() { return static_cast<int64_t>(u64()); }

    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }

    bool atEnd() const { return ok_ && pos_ == data_.size(); }

  private:
    template <typename T>
    T
    word()
    {
        if (sizeof(T) > data_.size() - pos_) {
            ok_ = false;
            return 0;
        }
        const T v = loadLE<T>(data_.data() + pos_);
        pos_ += sizeof(T);
        return v;
    }

    const std::string &data_;
    size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace cache
} // namespace tilus
