// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each call it makes into a polyfuse module in a
// span; the program itself is not instrumented. A span holds its name,
// start and end (seconds on the steady clock), the index of its parent
// span and the id of the op it belongs to. Spans stay in memory until the
// run ends; self times (a span's duration minus its direct children's)
// are derived from them afterwards. When recording is off, `layer` is a
// plain call.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  double start = 0;
  double end = 0;
  int parent = -1;  // index into the recorder's span list, -1 = none
  int op = -1;      // op id, -1 = outside any op
};

class SpanRecorder {
 public:
  static SpanRecorder& instance();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Ops opened while recording get a root span named "op".
  int open(const char* name, int op);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds summed per span name over the spans of `op`.
  std::map<std::string, double> self_seconds(int op) const;

  /// Write every span as one JSON array (name, start, end, parent, op).
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Id of the op currently being measured (the spans' op field).
int& current_op();

/// Run `f` inside a span named `name` when recording is on.
template <class F>
decltype(auto) layer(const char* name, F&& f) {
  SpanRecorder& rec = SpanRecorder::instance();
  if (!rec.enabled()) return f();
  struct Guard {
    SpanRecorder& rec;
    int index;
    ~Guard() { rec.close(index); }
  } guard{rec, rec.open(name, current_op())};
  return f();
}

}  // namespace bench
