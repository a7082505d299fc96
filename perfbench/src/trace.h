// Spans for the traced run: the benchmark records one around each call it
// makes into a layer's public function.  Spans stay in memory and are
// written out once the run ends.  A span's parent is a span that encloses
// it in time: on the serving workloads each request has a top span
// ("fcbench.request") whose children are the socket round trip and the
// in-process calls replaying it, made one after another.  A layer's self
// time (its call minus the next layer down on the same request) is
// therefore a difference between sibling spans, which the report takes.

#ifndef FCBENCH_TRACE_H_
#define FCBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fcbench {

struct Span {
  const char* name = "";  // a string literal: the layer call, e.g. "serve.json_value.parse"
  std::int64_t request = 0;
  int parent = -1;  // index of the calling layer's span, -1 at the top
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double Us() const { return static_cast<double>(end_ns - start_ns) * 1e-3; }
};

// One per thread.  A disabled tracer records nothing and Begin returns -1,
// so the untraced run pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name, std::int64_t request, int parent = -1);
  void End(int span);
  const Span& span(int index) const { return spans_[index]; }

  // Appends every span of `other` (indices re-based, so parents stay
  // right).
  void Merge(const Tracer& other);

  // One JSON object per line: {"name","request","parent","start_ns","end_ns"}.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

std::int64_t NowNanos();

}  // namespace fcbench

#endif  // FCBENCH_TRACE_H_
