#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <utility>

namespace e2e {

using periodk::Relation;
using periodk::Row;
using periodk::Value;
using periodk::ValueType;

double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double GeometricMean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : samples) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

double TrimmedMean(std::vector<double> samples, double trim) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t drop = static_cast<size_t>(
      std::floor(trim * static_cast<double>(samples.size())));
  double sum = 0.0;
  for (size_t i = drop; i < samples.size() - drop; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * drop);
}

std::string CanonicalCell(const Value& value) {
  switch (value.type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return value.AsBool() ? "true" : "false";
    case ValueType::kInt:
      return std::to_string(value.AsInt());
    case ValueType::kDouble: {
      double d = value.AsDouble();
      if (std::fabs(d) < 1e-9) {
        d = 0.0;
      } else if (std::isfinite(d)) {
        int exponent = 0;
        const double mantissa = std::frexp(d, &exponent);  // in [0.5, 1)
        d = std::ldexp(std::nearbyint(std::ldexp(mantissa, kFingerprintBits)),
                       exponent - kFingerprintBits);
      }
      // Nine digits tell any two 20-bit mantissas apart.
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.9g", d);
      return buf;
    }
    case ValueType::kString:
      return "'" + value.AsString() + "'";
  }
  return "?";
}

namespace {

std::string JoinCells(const Row& row, size_t count) {
  std::string out;
  for (size_t i = 0; i < count; ++i) {
    if (i > 0) out += '\x1f';
    out += CanonicalCell(row[i]);
  }
  return out;
}

}  // namespace

std::vector<std::string> CanonicalRows(const Relation& result, bool temporal) {
  const std::vector<Row>& rows = result.rows();
  std::vector<std::string> out;
  if (!temporal) {
    out.reserve(rows.size());
    for (const Row& row : rows) out.push_back(JoinCells(row, row.size()));
    std::sort(out.begin(), out.end());
    return out;
  }
  // Multiplicity sweep per canonical tuple: +1 at begin, -1 at end.
  const size_t arity = result.schema().size();
  std::map<std::string, std::vector<std::pair<int64_t, int>>> events;
  for (const Row& row : rows) {
    const int64_t begin = row[arity - 2].AsInt();
    const int64_t end = row[arity - 1].AsInt();
    if (begin >= end) continue;  // alive at no time point
    auto& tuple_events = events[JoinCells(row, arity - 2)];
    tuple_events.emplace_back(begin, 1);
    tuple_events.emplace_back(end, -1);
  }
  for (auto& [tuple, points] : events) {
    std::sort(points.begin(), points.end());
    int64_t count = 0;
    int64_t open_at = 0;     // start of the current constant run
    int64_t open_count = 0;  // multiplicity of that run (0 = none open)
    for (size_t i = 0; i < points.size();) {
      const int64_t t = points[i].first;
      int64_t next = count;
      for (; i < points.size() && points[i].first == t; ++i) {
        next += points[i].second;
      }
      if (next == count) continue;
      if (open_count > 0) {
        out.push_back(tuple + "|" + std::to_string(open_at) + "|" +
                      std::to_string(t) + "|x" + std::to_string(open_count));
      }
      count = next;
      open_at = t;
      open_count = count;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t Fingerprint(const Relation& result, bool temporal) {
  uint64_t hash = 1469598103934665603ULL;
  for (const std::string& row : CanonicalRows(result, temporal)) {
    for (unsigned char c : row) {
      hash = (hash ^ c) * 1099511628211ULL;
    }
    hash = (hash ^ 0x1e) * 1099511628211ULL;  // row separator
  }
  return hash;
}

namespace {

/// A row's doubles and period; the rest of the row keys its group.
struct Fragment {
  std::vector<double> doubles;
  int64_t begin = 0;
  int64_t end = 1;  // a bag row lives on [0, 1)
};

/// Rows grouped by their exact cells (doubles left as placeholders).
std::map<std::string, std::vector<Fragment>> GroupFragments(
    const Relation& result, bool temporal) {
  const size_t arity = result.schema().size();
  const size_t cells = temporal ? arity - 2 : arity;
  std::map<std::string, std::vector<Fragment>> groups;
  for (const Row& row : result.rows()) {
    Fragment fragment;
    if (temporal) {
      fragment.begin = row[arity - 2].AsInt();
      fragment.end = row[arity - 1].AsInt();
      if (fragment.begin >= fragment.end) continue;  // alive at no time point
    }
    std::string key;
    for (size_t i = 0; i < cells; ++i) {
      key += '\x1f';
      if (row[i].type() == ValueType::kDouble) {
        fragment.doubles.push_back(row[i].AsDouble());
        key += 'd';
      } else {
        key += CanonicalCell(row[i]);
      }
    }
    groups[key].push_back(std::move(fragment));
  }
  return groups;
}

bool Close(double x, double y) {
  if (std::fabs(x) < 1e-9 && std::fabs(y) < 1e-9) return true;
  return std::fabs(x - y) <=
         std::ldexp(std::max(std::fabs(x), std::fabs(y)), -kFingerprintBits);
}

using DoublesBag = std::multiset<std::vector<double>>;

/// Sorted bags pair up element by element.
bool CloseBags(const DoublesBag& a, const DoublesBag& b) {
  if (a.size() != b.size()) return false;
  for (auto x = a.begin(), y = b.begin(); x != a.end(); ++x, ++y) {
    for (size_t i = 0; i < x->size(); ++i) {
      if (!Close((*x)[i], (*y)[i])) return false;
    }
  }
  return true;
}

/// Sweeps one group's fragments of both results through time and
/// compares the bags alive after every time point where one changes.
bool SameSnapshots(const std::vector<Fragment>& a,
                   const std::vector<Fragment>& b) {
  struct Event {
    int64_t t;
    const Fragment* fragment;
    int side;
    bool opens;
  };
  std::vector<Event> events;
  for (int side = 0; side < 2; ++side) {
    for (const Fragment& f : side == 0 ? a : b) {
      events.push_back({f.begin, &f, side, true});
      events.push_back({f.end, &f, side, false});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& x, const Event& y) { return x.t < y.t; });
  DoublesBag alive[2];
  for (size_t i = 0; i < events.size();) {
    const int64_t t = events[i].t;
    for (; i < events.size() && events[i].t == t; ++i) {
      const Event& e = events[i];
      DoublesBag& bag = alive[e.side];
      if (e.opens) {
        bag.insert(e.fragment->doubles);
      } else {
        bag.erase(bag.find(e.fragment->doubles));
      }
    }
    if (!CloseBags(alive[0], alive[1])) return false;
  }
  return true;
}

}  // namespace

bool EquivalentResults(const Relation& a, const Relation& b, bool temporal) {
  if (a.schema().size() != b.schema().size()) return false;
  const auto groups_a = GroupFragments(a, temporal);
  const auto groups_b = GroupFragments(b, temporal);
  if (groups_a.size() != groups_b.size()) return false;
  for (auto x = groups_a.begin(), y = groups_b.begin(); x != groups_a.end();
       ++x, ++y) {
    if (x->first != y->first || !SameSnapshots(x->second, y->second)) {
      return false;
    }
  }
  return true;
}

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

}  // namespace

uint64_t BagHash(const Relation& result) {
  const size_t arity = result.schema().size();
  uint64_t sum = 0;
  for (size_t i = 0; i < result.size(); ++i) {
    uint64_t row = 0x243f6a8885a308d3ULL;
    for (size_t c = 0; c < arity; ++c) {
      const uint64_t cell = result.is_columnar() ? result.col(c).Get(i).Hash()
                                                 : result.rows()[i][c].Hash();
      row = Mix(row ^ cell);
    }
    sum += row;
  }
  return sum;
}

namespace {
// Keeps the calibration loop's result observable so it is not folded away.
volatile uint64_t calibration_sink = 0;
}  // namespace

double CalibrationMs() {
  const auto start = std::chrono::steady_clock::now();
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 40'000'000; ++i) {
    state ^= state >> 29;
    state *= 0xbf58476d1ce4e5b9ULL;
    state += static_cast<uint64_t>(i);
  }
  const auto end = std::chrono::steady_clock::now();
  calibration_sink = state;
  return std::chrono::duration<double, std::milli>(end - start).count();
}

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs) return false;
  clear_refs << "5";
  return static_cast<bool>(clear_refs.flush());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

}  // namespace e2e
