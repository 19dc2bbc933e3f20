#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace e2e {

int Trace::Record(std::string name, Clock::time_point start,
                  Clock::time_point end, int parent, int64_t op,
                  bool replay) {
  spans_.push_back(Span{std::move(name), start, end, parent, op, replay});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, Trace::NameTotals> Trace::Totals() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[static_cast<size_t>(span.parent)] -= span.ms();
  }
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    NameTotals& t = totals[spans_[i].name];
    ++t.count;
    t.total_ms += spans_[i].ms();
    t.self_ms += std::max(self[i], 0.0);
  }
  return totals;
}

bool Trace::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fputs("[\n", out);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %d, \"op\": %lld, "
                 "\"replay\": %s}%s\n",
                 i, s.name.c_str(), us(s.start), us(s.end), s.parent,
                 static_cast<long long>(s.op), s.replay ? "true" : "false",
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

}  // namespace e2e
