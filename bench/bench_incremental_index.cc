// Mixed insert / AS-OF workload over the differential timeline index
// (engine/timeline_index.h WithDelta + middleware maintenance): indexed
// read latency must stay flat while writes stream in, because each
// append publishes a bounded delta next to the warm index instead of
// invalidating it, and every few hundred writes the writer folds the
// delta into a fresh index inline.  Series: read-only indexed baseline,
// streaming inserts with differential maintenance (the claim: within
// ~2x of the baseline), and the O(table) scan reference.  All outputs
// are checked row-exact against the scan path before anything is
// timed.  Record medians into BENCH_incremental_index.json per
// docs/benchmarks.md.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "engine/temporal_ops.h"
#include "middleware/temporal_db.h"
#include "rewrite/rewriter.h"

namespace periodk {
namespace {

constexpr TimePoint kDomainEnd = 1000000;

/// Short-lived intervals (1..2000 ticks) over a wide domain, the same
/// shape as bench_timeslice: any instant sees a small alive fraction.
Row RandomRow(Rng* rng) {
  TimePoint b = rng->Range(0, kDomainEnd - 2001);
  TimePoint e = b + rng->Range(1, 2000);
  return {Value::Int(rng->Range(0, 63)), Value::Int(rng->Range(0, 1 << 20)),
          Value::Int(b), Value::Int(e)};
}

TemporalDB MakeDb(Rng* rng, int rows) {
  TemporalDB db(TimeDomain{0, kDomainEnd});
  if (!db.CreatePeriodTable("t", {"k", "v", "ts", "te"}, "ts", "te").ok()) {
    std::fprintf(stderr, "FATAL: CreatePeriodTable failed\n");
    std::exit(1);
  }
  std::vector<Row> batch;
  batch.reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) batch.push_back(RandomRow(rng));
  if (!db.InsertRows("t", std::move(batch)).ok()) {
    std::fprintf(stderr, "FATAL: bulk load failed\n");
    std::exit(1);
  }
  return db;
}

/// One timed probe; FATAL on error so timings never cover failures.
size_t Probe(const TemporalDB& db, TimePoint t) {
  auto result = db.Timeslice("t", t);
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  return result->size();
}

/// Row-exactness gate: the DB's (indexed) timeslice vs the scan path
/// over the current relation, same rows in the same order.
void CheckExact(const TemporalDB& db, TimePoint t, const char* series) {
  auto result = db.Timeslice("t", t);
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  std::shared_ptr<const Relation> rel = db.catalog().GetShared("t");
  Relation scanned = TimesliceEncoded(*rel, t);
  bool same = result->size() == scanned.size();
  for (size_t i = 0; same && i < scanned.size(); ++i) {
    // The timeslice drops the two trailing interval columns.
    for (size_t c = 0; same && c < result->schema().size(); ++c) {
      same = (*result).rows()[i][c] == scanned.rows()[i][c];
    }
  }
  if (!same) {
    std::fprintf(stderr, "FATAL: %s diverges from the scan at t=%lld\n",
                 series, static_cast<long long>(t));
    std::exit(1);
  }
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

std::string Sci(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2e", seconds);
  return buf;
}

}  // namespace
}  // namespace periodk

int main() {
  using namespace periodk;
  int rows = bench::EnvInt("PERIODK_BENCH_INCR_ROWS", 100000);
  // At 100k rows the compaction threshold is its 4096-event maximum;
  // the default mix (below) averages 9.5 events per write, so 900
  // writes cross two inline compactions.
  int writes = bench::EnvInt("PERIODK_BENCH_INCR_WRITES", 900);
  int probes_per_write = bench::EnvInt("PERIODK_BENCH_INCR_PROBES", 4);
  // Every 4th write is a batch of this many rows (a mixed single/bulk
  // insert stream).
  int batch_rows = bench::EnvInt("PERIODK_BENCH_INCR_BATCH_ROWS", 16);

  bench::PrintBanner(
      "incremental index maintenance: AS-OF latency under streaming inserts",
      "Scale via PERIODK_BENCH_INCR_ROWS (preloaded rows, default 100000) "
      "and PERIODK_BENCH_INCR_WRITES (streamed inserts, default 900).");

  Rng rng(20260807);
  std::vector<TimePoint> probes;
  for (int i = 0; i < writes * probes_per_write; ++i) {
    probes.push_back(rng.Range(0, kDomainEnd));
  }

  bench::TablePrinter table(
      {"Series", "Rows", "Writes", "Read/q", "vs baseline"},
      {22, 9, 8, 12, 12});
  table.PrintHeader();

  // --- Read-only indexed baseline. -----------------------------------------
  double baseline;
  {
    TemporalDB db = MakeDb(&rng, rows);
    Probe(db, probes[0]);  // warm (lazy index build)
    for (int i = 0; i < 8; ++i) CheckExact(db, probes[i], "baseline");
    std::vector<double> lat;
    for (TimePoint t : probes) {
      lat.push_back(bench::TimeOnce([&] { Probe(db, t); }));
    }
    baseline = Median(std::move(lat));
    table.PrintRow({"read-only indexed", std::to_string(rows), "0",
                    Sci(baseline), "1.0x"});
  }

  // --- Streaming inserts, differential maintenance. -----------------------
  double streaming;
  double write_seconds;
  IndexMaintenanceStats maint_stats;
  {
    TemporalDB db = MakeDb(&rng, rows);
    Probe(db, probes[0]);  // warm, so appends maintain differentially
    std::vector<double> lat;
    std::vector<double> wlat;
    size_t p = 0;
    for (int w = 0; w < writes; ++w) {
      std::vector<Row> batch;
      int n = (w % 4 == 3) ? batch_rows : 1;
      for (int i = 0; i < n; ++i) batch.push_back(RandomRow(&rng));
      wlat.push_back(bench::TimeOnce([&] {
        if (!db.InsertRows("t", std::move(batch)).ok()) {
          std::fprintf(stderr, "FATAL: streamed insert failed\n");
          std::exit(1);
        }
      }));
      for (int q = 0; q < probes_per_write; ++q, ++p) {
        lat.push_back(bench::TimeOnce([&] { Probe(db, probes[p]); }));
      }
    }
    for (int i = 0; i < 8; ++i) CheckExact(db, probes[i], "streaming");
    streaming = Median(std::move(lat));
    write_seconds = Median(std::move(wlat));
    maint_stats = db.index_maintenance_stats();
    char rel[32];
    std::snprintf(rel, sizeof(rel), "%.2fx", streaming / baseline);
    table.PrintRow({"streaming differential", std::to_string(rows),
                    std::to_string(writes), Sci(streaming), rel});
  }

  // --- O(table) scan reference. --------------------------------------------
  {
    TemporalDB db = MakeDb(&rng, rows);
    RewriteOptions opts = db.options();
    opts.use_timeline_index = false;
    db.set_options(opts);
    std::vector<double> lat;
    int scan_probes = std::min<int>(200, static_cast<int>(probes.size()));
    for (int i = 0; i < scan_probes; ++i) {
      lat.push_back(bench::TimeOnce([&] { Probe(db, probes[i]); }));
    }
    double scan = Median(std::move(lat));
    char rel[32];
    std::snprintf(rel, sizeof(rel), "%.1fx", scan / baseline);
    table.PrintRow({"scan", std::to_string(rows), "0", Sci(scan), rel});
  }

  std::printf(
      "\nstreamed writes: %s s/insert (median); %s\n"
      "claim check: streaming read latency %.2fx of read-only baseline "
      "(target ~2x)\n",
      Sci(write_seconds).c_str(), maint_stats.ToString().c_str(),
      streaming / baseline);
  return 0;
}
