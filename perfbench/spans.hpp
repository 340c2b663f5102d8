// In-memory span log for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around each call into a
// library layer (tida, core, net, sim); nothing inside the library is
// instrumented. A span's name is "<layer>.<call>", so per-layer self time
// is the sum of self times over names sharing the prefix. Spans stay in
// memory and are written once, at exit, as Chrome-trace JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  int name = -1;      ///< index into the log's name table
  int parent = -1;    ///< index of the enclosing span, -1 at the root
  int run = -1;       ///< index into the log's run labels
  std::int64_t start_ns = 0;  ///< steady-clock ns since the log was made
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  SpanLog();

  /// Spans open only while enabled; disabled spans cost one branch.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Starts a new workload run id; later spans carry it.
  void begin_run(const std::string& label);

  /// Opens a span and returns its index (-1 when disabled).
  int open(const char* name);
  void close(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Durations (ns) of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const;

  /// Self time (ns) summed per layer: a span's duration minus the time its
  /// direct children cover, grouped by the name's prefix before '.'.
  std::map<std::string, double> self_ns_by_layer() const;

  /// Sum of the durations of `child`-named spans under each `parent`-named
  /// span, one entry per parent span in order (ns).
  std::vector<double> child_ns_per_parent(const std::string& parent,
                                          const std::string& child) const;

  /// Writes every span as a Chrome-trace "complete" event (ph "X"); returns
  /// false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  int intern(const char* name);

  bool enabled_ = false;
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  ///< stack of open span indices
  std::vector<std::string> names_;
  std::map<std::string, int> name_ids_;
  /// Literal pointer -> name id; callers pass string literals, so a
  /// pointer compare finds the id without building a string per span.
  std::vector<std::pair<const char*, int>> literal_ids_;
  std::vector<std::string> runs_;
};

/// RAII span around one library call.
class Span {
 public:
  Span(SpanLog& log, const char* name)
      : log_(log), index_(log.enabled() ? log.open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) {
      log_.close(index_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

}  // namespace perfbench
