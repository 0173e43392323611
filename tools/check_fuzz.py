#!/usr/bin/env python3
"""Validate the checked-in fuzz regression corpus (tests/corpus/).

Each *.lirk file is a serialized O0 lir::Kernel in the cache blob
format (src/cache/blob_store.h): a 24-byte little-endian header
{magic u32, version u32, payload size u64, payload hash u64} followed
by the payload. This script re-implements the payload hash
(cache::payloadHash, src/cache/blob_store.cc: four 64-bit lanes over
32-byte stripes, xxHash64-style finalizer), self-checks it against the
known-answer vectors that tests/test_cache.cc pins for the C++ side,
and checks, without building anything:

  * the file starts with the magic "TLFZ" and the version matches
    kCacheFormatVersion;
  * the size field equals the actual payload length (no truncation);
  * the payload hash matches (no bit rot);
  * file names follow <bug-class>_<hex seed>.lirk and every generator
    bug class (layout, masking, sync, dtype, control) is represented.

Functional re-verification — running every corpus kernel through the
six differential legs {O0, O2} x {treewalk, microop} x {direct,
round-tripped} — needs the built tree and lives in
tests/test_fuzz.cc (Fuzz.CheckedInCorpusPassesSixWay); this script is
the no-build half wired into the CI docs job.

Exit status: 0 when the corpus is sound, 1 otherwise. Run from
anywhere:

    python3 tools/check_fuzz.py [repo_root]
"""
import os
import re
import struct
import sys

CORPUS_MAGIC = struct.unpack("<I", b"TLFZ")[0]
FORMAT_VERSION = 1
HEADER = struct.Struct("<IIQQ")  # magic, version, payload size, hash

BUG_CLASSES = ("layout", "masking", "sync", "dtype", "control")
NAME_RE = re.compile(r"^(%s)_[0-9a-f]+\.lirk$" % "|".join(BUG_CLASSES))

MASK = (1 << 64) - 1


P1 = 0x9E3779B185EBCA87
P2 = 0xC2B2AE3D27D4EB4F
P3 = 0x165667B19E3779F9
P4 = 0x85EBCA77C2B2AE63
P5 = 0x27D4EB2F165667C5

# cache::payloadHash of bytes(range(n)) for each n; the same vectors are
# pinned in tests/test_cache.cc (BlobStore.PayloadHashKnownAnswers).
KNOWN_ANSWERS = (
    (0, 0xC1620D0A2DCAA9D2),    # empty payload
    (256, 0x1136B26A870AD6DE),  # eight whole stripes
    (33, 0x521A3D6CAC97FA0B),   # one stripe and a one-byte tail
    (63, 0xF1066FB80B19C9BD),   # every tail step: 3 words, 4 bytes, 3 bytes
)


def rotl(v, r):
    return ((v << r) | (v >> (64 - r))) & MASK


def lane(acc, word):
    return (rotl((acc + word * P2) & MASK, 31) * P1) & MASK


def payload_hash(data):
    """cache::payloadHash over `data`."""
    size = len(data)
    v = [(P1 + P2) & MASK, P2, 0, (-P1) & MASK]
    pos = 0
    while size - pos >= 32:
        words = struct.unpack_from("<4Q", data, pos)
        v = [lane(acc, w) for acc, w in zip(v, words)]
        pos += 32
    h = P5
    for acc in v:
        h = ((h ^ lane(0, acc)) * P1 + P4) & MASK
    h = (h + size) & MASK
    while size - pos >= 8:
        (word,) = struct.unpack_from("<Q", data, pos)
        h = (rotl(h ^ lane(0, word), 27) * P1 + P4) & MASK
        pos += 8
    if size - pos >= 4:
        (word,) = struct.unpack_from("<I", data, pos)
        h = (rotl(h ^ ((word * P1) & MASK), 23) * P2 + P3) & MASK
        pos += 4
    for byte in data[pos:]:
        h = (rotl(h ^ ((byte * P5) & MASK), 11) * P1) & MASK
    h ^= h >> 33
    h = (h * P2) & MASK
    h ^= h >> 29
    h = (h * P3) & MASK
    h ^= h >> 32
    return h


def self_check():
    """Known-answer mismatches of payload_hash, as error strings."""
    errors = []
    for n, want in KNOWN_ANSWERS:
        got = payload_hash(bytes(range(n)))
        if got != want:
            errors.append("payload_hash known answer for %d bytes: "
                          "0x%016x != 0x%016x" % (n, got, want))
    return errors


def check_file(path, errors):
    name = os.path.basename(path)
    if not NAME_RE.match(name):
        errors.append("%s: name is not <bug-class>_<hex seed>.lirk" % name)
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < HEADER.size:
        errors.append("%s: truncated header (%d bytes)" % (name, len(blob)))
        return None
    magic, version, size, digest = HEADER.unpack_from(blob)
    payload = blob[HEADER.size:]
    if magic != CORPUS_MAGIC:
        errors.append("%s: bad magic 0x%08x" % (name, magic))
    if version != FORMAT_VERSION:
        errors.append("%s: version %d != %d" % (name, version, FORMAT_VERSION))
    if size != len(payload):
        errors.append("%s: size field %d != payload %d"
                      % (name, size, len(payload)))
    if digest != payload_hash(payload):
        errors.append("%s: payload hash mismatch" % name)
    return name.split("_", 1)[0]


def main():
    errors = self_check()
    if errors:
        for e in errors:
            print(e)
        return 1
    root = sys.argv[1] if len(sys.argv) > 1 else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    corpus = os.path.join(root, "tests", "corpus")
    if not os.path.isdir(corpus):
        print("missing corpus directory: %s" % corpus)
        return 1
    classes = set()
    count = 0
    for name in sorted(os.listdir(corpus)):
        if not name.endswith(".lirk"):
            continue
        count += 1
        cls = check_file(os.path.join(corpus, name), errors)
        if cls:
            classes.add(cls)
    missing = [c for c in BUG_CLASSES if c not in classes]
    if missing:
        errors.append("bug classes without a corpus kernel: %s"
                      % ", ".join(missing))
    if count == 0:
        errors.append("corpus is empty")
    for e in errors:
        print(e)
    if errors:
        return 1
    print("check_fuzz: %d corpus kernels OK (%s)"
          % (count, ", ".join(sorted(classes))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
