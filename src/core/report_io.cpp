#include "core/report_io.hpp"

#include <bit>
#include <cstring>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace gfre::core {

namespace {

constexpr char kMagic[4] = {'G', 'F', 'R', 'B'};

// -- Little-endian writer ---------------------------------------------------

struct Writer {
  std::string out;

  void u8(std::uint8_t v) { out.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { util::put_u32(out, v); }
  void u64(std::uint64_t v) { util::put_u64(out, v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    out.append(s);
  }
  void poly(const gf2::Poly& p) {
    const auto degrees = p.support();
    u64(degrees.size());
    for (const unsigned d : degrees) u32(d);
  }
};

// -- Bounds-checked reader --------------------------------------------------

struct Reader {
  std::string_view in;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (in.size() - pos < n) {
      throw Error("truncated FlowReport blob (want " + std::to_string(n) +
                  " more bytes at offset " + std::to_string(pos) + ", have " +
                  std::to_string(in.size() - pos) + ")");
    }
  }
  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(in[pos++]);
  }
  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = util::get_u32(in.data() + pos);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const std::uint64_t v = util::get_u64(in.data() + pos);
    pos += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  /// A count that allocates must fit in what the blob could possibly hold —
  /// otherwise a corrupt length field turns into a giant allocation before
  /// the truncation check can fire.
  std::size_t count(std::size_t element_bytes) {
    const std::uint64_t n = u64();
    if (element_bytes > 0 && n > (in.size() - pos) / element_bytes) {
      throw Error("corrupt FlowReport blob: count " + std::to_string(n) +
                  " exceeds the remaining payload");
    }
    return static_cast<std::size_t>(n);
  }
  std::string str() {
    const std::size_t n = count(1);
    need(n);
    std::string s(in.substr(pos, n));
    pos += n;
    return s;
  }
  gf2::Poly poly() {
    const std::size_t terms = count(4);
    std::vector<unsigned> degrees;
    degrees.reserve(terms);
    for (std::size_t i = 0; i < terms; ++i) degrees.push_back(u32());
    return gf2::Poly::from_degrees(degrees);
  }
};

}  // namespace

std::string serialize_report(const FlowReport& report) {
  Writer w;
  w.out.append(kMagic, sizeof kMagic);
  w.u32(kReportSchemaVersion);

  w.u32(report.m);
  w.u64(report.equations);
  w.poly(report.algorithm2_p);

  w.u8(static_cast<std::uint8_t>(report.recovery.circuit_class));
  w.poly(report.recovery.p);
  w.u8(report.recovery.p_is_irreducible ? 1 : 0);
  w.u64(report.recovery.rows.size());
  for (const auto& row : report.recovery.rows) w.poly(row);
  w.u8(report.recovery.rows_consistent ? 1 : 0);
  w.str(report.recovery.diagnosis);

  w.u8(report.output_permutation.has_value() ? 1 : 0);
  if (report.output_permutation.has_value()) {
    w.u64(report.output_permutation->size());
    for (const unsigned i : *report.output_permutation) w.u32(i);
  }

  w.u8(report.verification.equivalent ? 1 : 0);
  w.u32(report.verification.mismatch_bit);
  w.str(report.verification.detail);

  w.u64(report.extraction.per_bit.size());
  for (const auto& stats : report.extraction.per_bit) {
    w.u64(stats.cone_gates);
    w.u64(stats.substitutions);
    w.u64(stats.cancellations);
    w.u64(stats.peak_terms);
    w.u64(stats.final_terms);
    w.f64(stats.seconds);
  }
  w.f64(report.extraction.wall_seconds);
  w.u64(report.extraction.total_peak_terms);
  w.u32(report.extraction.threads);

  w.f64(report.total_seconds);
  w.u64(report.rss_peak_bytes);
  w.u64(report.rss_after_bytes);
  w.u8(report.success ? 1 : 0);
  return std::move(w.out);
}

FlowReport deserialize_report(std::string_view bytes) {
  Reader r{bytes};
  r.need(sizeof kMagic);
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw Error("FlowReport blob has a bad magic header");
  }
  r.pos += sizeof kMagic;
  const std::uint32_t version = r.u32();
  if (version != kReportSchemaVersion) {
    throw Error("FlowReport blob has schema version " +
                std::to_string(version) + ", this build reads only " +
                std::to_string(kReportSchemaVersion));
  }

  FlowReport report;
  report.m = r.u32();
  report.equations = r.u64();
  report.algorithm2_p = r.poly();

  const std::uint8_t circuit_class = r.u8();
  if (circuit_class > static_cast<std::uint8_t>(CircuitClass::NotAMultiplier)) {
    throw Error("corrupt FlowReport blob: unknown circuit class " +
                std::to_string(circuit_class));
  }
  report.recovery.circuit_class = static_cast<CircuitClass>(circuit_class);
  report.recovery.p = r.poly();
  report.recovery.p_is_irreducible = r.u8() != 0;
  const std::size_t rows = r.count(8);
  report.recovery.rows.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    report.recovery.rows.push_back(r.poly());
  }
  report.recovery.rows_consistent = r.u8() != 0;
  report.recovery.diagnosis = r.str();

  if (r.u8() != 0) {
    const std::size_t bits = r.count(4);
    std::vector<unsigned> permutation;
    permutation.reserve(bits);
    for (std::size_t i = 0; i < bits; ++i) permutation.push_back(r.u32());
    report.output_permutation = std::move(permutation);
  }

  report.verification.equivalent = r.u8() != 0;
  report.verification.mismatch_bit = r.u32();
  report.verification.detail = r.str();

  const std::size_t per_bit = r.count(6 * 8);
  report.extraction.per_bit.reserve(per_bit);
  for (std::size_t i = 0; i < per_bit; ++i) {
    RewriteStats stats;
    stats.cone_gates = r.u64();
    stats.substitutions = r.u64();
    stats.cancellations = r.u64();
    stats.peak_terms = r.u64();
    stats.final_terms = r.u64();
    stats.seconds = r.f64();
    report.extraction.per_bit.push_back(stats);
  }
  report.extraction.wall_seconds = r.f64();
  report.extraction.total_peak_terms = r.u64();
  report.extraction.threads = r.u32();

  report.total_seconds = r.f64();
  report.rss_peak_bytes = r.u64();
  report.rss_after_bytes = r.u64();
  report.success = r.u8() != 0;

  if (r.pos != bytes.size()) {
    throw Error("FlowReport blob has " + std::to_string(bytes.size() - r.pos) +
                " bytes of trailing garbage");
  }
  return report;
}

}  // namespace gfre::core
