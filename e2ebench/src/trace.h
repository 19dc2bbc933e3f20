// In-memory span log for the benchmark's traced run.  Spans are recorded
// from the benchmark's own code around its calls into each layer (name,
// start, end, parent span, operation id) and written out once when the
// run ends, so recording costs a clock read and a vector append.
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;     // index of the parent span; -1 for an operation root
                       // ("op.<template>", "op.write", "op.load")
  int64_t op = -1;     // operation the span belongs to
  bool replay = false; // re-runs a call the middleware made privately
  double ms() const { return MsBetween(start, end); }
};

class Trace {
 public:
  Trace() : origin_(Clock::now()) {}

  /// Records a finished span; returns its index.
  int Record(std::string name, Clock::time_point start, Clock::time_point end,
             int parent, int64_t op, bool replay = false);

  const std::vector<Span>& spans() const { return spans_; }

  /// Total and self milliseconds per span name.  A span's self time is
  /// its duration minus the time its children cover.  Children run inside
  /// their parent, except replays, which run right after it and re-do part
  /// of its work; both cover their own duration.
  struct NameTotals {
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, NameTotals> Totals() const;

  /// Writes every span as JSON (times in microseconds since the trace
  /// started).  False when the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
