#include "spans.h"

#include <cstdio>
#include <fstream>

namespace bench {

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder rec;
  return rec;
}

int& current_op() {
  static int op = -1;
  return op;
}

int SpanRecorder::open(const char* name, int op) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op;
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  // Read the clock last so the bookkeeping above is not inside the span.
  spans_[index].start = now_s();
  return index;
}

void SpanRecorder::close(int index) {
  spans_[index].end = now_s();
  stack_.pop_back();
}

std::map<std::string, double> SpanRecorder::self_seconds(int op) const {
  std::map<std::string, double> out;
  std::map<int, double> child_time;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op != op) continue;
    if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op != op) continue;
    out[s.name] += (s.end - s.start) - child_time[static_cast<int>(i)];
  }
  return out;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d,\"op\":%d}",
                  i == 0 ? "" : ",", s.name, s.start, s.end, s.parent, s.op);
    out << buf;
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace bench
