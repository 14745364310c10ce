// In-memory span recorder for the benchmark's traced replay.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public layer functions — nothing inside the library is
// instrumented.  Each span keeps its name, start, end, parent and the job
// it belongs to; spans stay in memory while the replay runs and are
// written out once at the end as Chrome trace-event JSON (open it in
// Perfetto or chrome://tracing).
//
// A span's self time is its duration minus the durations of its direct
// children.  The replay is single-threaded at this level (library calls
// may use threads internally, but return before the span closes), so
// children nest strictly inside their parent.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace gfre::e2e {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start = 0;  ///< seconds since the tracer was created
    double end = 0;
    int parent = -1;   ///< index of the enclosing span, -1 for a root
    std::uint64_t job = 0;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t job)
        : tracer_(tracer), index_(tracer.open(name, job)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Seconds since the span opened.
    double seconds() const { return tracer_.now() - tracer_.spans_[index_].start; }

   private:
    Tracer& tracer_;
    int index_;
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) { spans_.reserve(1 << 14); }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Total self time per span name, over every span recorded.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child_total(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_total[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child_total[i];
    }
    return out;
  }

  /// Writes every span as a Chrome "complete" event (ph X, microseconds).
  bool write_chrome_json(const std::string& path,
                         const std::string& metadata_json) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"otherData\": " << metadata_json << ",\n\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << s.start * 1e6 << ", \"dur\": " << (s.end - s.start) * 1e6
          << ", \"args\": {\"job\": " << s.job << ", \"span\": " << i
          << ", \"parent\": " << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out.flush());
  }

 private:
  int open(const char* name, std::uint64_t job) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.job = job;
    s.start = now();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void close(int index) {
    spans_[index].end = now();
    open_.pop_back();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

}  // namespace gfre::e2e
