// JSON-lines report writer.
//
// Batch runs emit one flat JSON object per job (newline-delimited JSON),
// the format log pipelines and `jq` consume natively — a 10,000-job report
// streams line by line instead of materializing one giant document.  No
// external JSON dependency: records are flat key -> scalar maps, rendered
// with the same escaping rules as bench/bench_json.hpp.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace gfre {

/// One flat JSON object: insertion-ordered key -> scalar fields.
class JsonLine {
 public:
  JsonLine& add(const std::string& key, const std::string& value);
  JsonLine& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }
  JsonLine& add(const std::string& key, double value);
  JsonLine& add(const std::string& key, std::size_t value);
  JsonLine& add(const std::string& key, unsigned value) {
    return add(key, static_cast<std::size_t>(value));
  }
  JsonLine& add(const std::string& key, bool value);

  /// Renders "{...}" (no trailing newline).
  std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Appending newline-delimited JSON writer.  Throws Error when the file
/// cannot be opened; write failures surface on close()/destruction via
/// ok().
class JsonlWriter {
 public:
  /// Opens `path` for writing (truncates).
  explicit JsonlWriter(const std::string& path);
  ~JsonlWriter();

  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  /// Writes one record as a single line.
  void write(const JsonLine& line);

  /// Writes an already-rendered record verbatim (plus the newline).  Used
  /// when the bytes must match another writer's output exactly — e.g.
  /// gfre_batch relaying the report lines gfre_server's workers rendered.
  void write_raw(const std::string& line);

  /// Flushes and closes.  Safe to call more than once.
  void close();

  /// True while every write has succeeded.
  bool ok() const { return ok_; }

  std::size_t lines_written() const { return lines_; }

 private:
  std::FILE* file_ = nullptr;
  bool ok_ = true;
  std::size_t lines_ = 0;
};

}  // namespace gfre
