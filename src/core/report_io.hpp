// Versioned binary serialization of core::FlowReport — the answer only.
//
// The persistent result cache (core/result_cache.hpp) stores completed
// flow outcomes across processes, so a warm CI run must be able to replay
// a FlowReport *exactly* as the cold run produced it — every diagnosis
// string, every per-bit stat, every timing double bit for bit.  JSON was
// rejected for this job: round-tripping doubles through text is slower,
// bigger and easier to get subtly wrong than a fixed little-endian binary
// layout.
//
// The per-bit ANFs are not part of the answer: analyze_extraction consumes
// them, serialize_report ignores `extraction.anfs` and deserialize_report
// leaves it empty.
//
// Format (byte-precise layout in docs/CACHE_FORMAT.md):
//   magic "GFRB", u32 schema version, then every serialized FlowReport
//   field in declaration order.  Integers are little-endian fixed width,
//   doubles are their IEEE-754 bit patterns as u64 (exact round trip by
//   construction), strings and vectors are u64-length-prefixed,
//   polynomials are their support degrees (canonical, so equal reports
//   give equal blobs).
//
// Versioning: kReportSchemaVersion bumps whenever FlowReport (or any
// nested struct) changes shape.  deserialize_report rejects every other
// version with an Error — the cache treats that as a miss and re-extracts
// (docs/CACHE_FORMAT.md, "Versioning").  There is deliberately no
// migration path: a cache entry is a memo, not data of record.
//
// Thread safety: both functions are pure (no shared state); call them
// freely from scheduler workers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/flow.hpp"

namespace gfre::core {

/// Bump on any change to FlowReport's serialized shape (2: no ANFs).
inline constexpr std::uint32_t kReportSchemaVersion = 2;

/// Serializes a report to a self-describing binary blob.
std::string serialize_report(const FlowReport& report);

/// Inverse of serialize_report (`extraction.anfs` stays empty).  Throws
/// gfre::Error on a bad magic, a schema-version mismatch, truncation, or
/// trailing garbage — callers (the result cache) map all of those to
/// "treat as miss".
FlowReport deserialize_report(std::string_view bytes);

}  // namespace gfre::core
