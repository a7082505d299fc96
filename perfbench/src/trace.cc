#include "trace.h"

#include <chrono>
#include <cstdio>

namespace fcbench {

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const char* name, std::int64_t request, int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  spans_.push_back(span);
  spans_.back().start_ns = NowNanos();
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span) {
  if (span >= 0) spans_[span].end_ns = NowNanos();
}

void Tracer::Merge(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"request\":%lld,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 span.name, static_cast<long long>(span.request), span.parent,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace fcbench
