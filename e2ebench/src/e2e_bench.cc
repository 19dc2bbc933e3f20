// End-to-end benchmark of the periodk middleware (see ../NOTES.md).
//
//   e2e_bench --workload <employee-table3|tpcbih-table3|asof-serving>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--source-digest <hex>] [--out-dir <dir>]
//
// One client thread drives a closed loop against an embedded TemporalDB:
// every operation is TemporalDB::Prepare followed by Execute(plan,
// catalog, options, &stats) -- the two steps Query() takes -- or, on
// asof-serving, an InsertRows batch.  Inputs come from src/datagen and
// are generated before anything is timed.  Every result is checked.
//
// A run repeats one unit of work: a round of every template (Table 3) or
// a write cycle that starts from a freshly loaded database (asof-serving),
// so every unit serves the same table sizes however fast the code is.
// --trace 0 measures whole units until --seconds of client busy time have
// passed and reports the end-to-end metrics; --trace 1 runs a fixed number
// of units (half of --seconds at the nominal speed) untraced, then the same
// units traced, and reports the per-layer metrics, whose counts therefore
// repeat exactly for a seed.  The last stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
// the line before it is a report with the run context and every metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/executor.h"
#include "engine/timeline_index.h"
#include "measure.h"
#include "middleware/temporal_db.h"
#include "ra/cost_model.h"
#include "rewrite/rewriter.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "stats/table_stats.h"
#include "trace.h"
#include "workloads.h"

namespace e2e {
namespace {

using periodk::ExecStats;
using periodk::PlanPtr;
using periodk::Relation;
using periodk::Rng;
using periodk::Row;
using periodk::TemporalDB;
using periodk::Value;

// --- Workloads -------------------------------------------------------------

constexpr int kEmployees = 5000;
constexpr double kScaleFactor = 0.01;
/// Fresh loads before measuring, after one cold load.  setup_s is their
/// median together with the loads that start asof-serving's cycles.
constexpr int kSetupLoads = 9;
/// Samples a run takes at least, so that ten lie beyond each reported
/// percentile: query_p95_ms (Table 3), read_p99_ms, write_p90_ms.
constexpr int kMinQueries = 200;
constexpr int kMinReads = 1000;
constexpr int kMinWrites = 100;
/// asof-serving: one InsertRows batch of kWriteRows after every
/// kReadsPerWrite reads.  Its unit is a cycle of kUnitWrites writes on a
/// freshly loaded database: three compactions, each read template
/// equally often.
constexpr int kReadsPerWrite = 8;
constexpr int kWriteRows = 64;
constexpr int kUnitWrites = 96;
/// Share of each template's fastest and slowest samples left out of its
/// mean in query_geomean_ms.
constexpr double kTemplateTrim = 0.10;
/// One AS-OF read in this many is re-run under the oracle options.
constexpr uint64_t kOracleSampleEvery = 16;
/// Written rows start within the domain's last kRecentDays days; reads
/// ask about any time after the domain's first kRecentDays days.
constexpr int64_t kRecentDays = 365;

struct WorkloadSpec {
  std::string name;
  bool asof = false;
  int num_threads = 1;
  /// Busy seconds one unit takes on a 4-core x86-64 VM, from ten seeds'
  /// runs.  Sizes the traced run, which must run a fixed number of units.
  double nominal_unit_s = 1.0;
  /// Units a run measures at least, for the percentiles' sample minimums.
  int min_units = 1;
};

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  // 10 templates (employee) or 11 (TPC-BiH) a round.
  constexpr int kTable3Min = (kMinQueries + 9) / 10;
  constexpr int kAsOfMin =
      std::max((kMinWrites + kUnitWrites - 1) / kUnitWrites,
               (kMinReads + kUnitWrites * kReadsPerWrite - 1) /
                   (kUnitWrites * kReadsPerWrite));
  if (name == "employee-table3") {
    return WorkloadSpec{name, false, 1, 1.0, kTable3Min};
  }
  if (name == "tpcbih-table3") {
    return WorkloadSpec{name, false, 2, 0.95, kTable3Min};
  }
  if (name == "asof-serving") return WorkloadSpec{name, true, 1, 5.0, kAsOfMin};
  return std::nullopt;
}

/// Units each half of a traced run measures: half of `seconds` at the
/// nominal speed.  The count depends only on its arguments, so the traced
/// counts repeat exactly for a seed.
int TracedUnits(const WorkloadSpec& spec, int seconds) {
  return std::max(spec.min_units, static_cast<int>(std::lround(
                                      seconds / 2.0 / spec.nominal_unit_s)));
}

// --- Measurement state -----------------------------------------------------

/// Samples and counters of one measured phase.
struct Phase {
  std::vector<double> query_ms;  // every query / AS-OF read
  std::map<std::string, std::vector<double>> template_ms;
  std::map<std::string, std::vector<double>> template_execute_ms;
  std::map<std::string, int64_t> template_rows_materialized;
  std::vector<double> prepare_ms;
  std::vector<double> execute_ms;
  std::vector<double> write_ms;
  std::vector<bool> write_compacted;
  std::vector<double> reload_s;  // set-up time of each cycle's fresh load
  double busy_ms = 0.0;  // client busy time: the sum of op latencies
  int64_t ops = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t units = 0;
  // Engine counters summed over query ops.
  int64_t nodes_executed = 0;
  int64_t memo_hits = 0;
  int64_t rows_materialized = 0;
  int64_t result_rows = 0;
  int64_t parallel_tasks = 0;
  int64_t cost_gated_fanouts = 0;
  int64_t index_timeslices = 0;
  int64_t index_delta_events = 0;
  // Middleware counter deltas.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t invalidations = 0;
  int64_t compactions = 0;
  int64_t minor_faults = 0;
  int64_t oracle_checks = 0;
};

/// When a phase ends, checked after each whole unit: once it has run
/// `min_units`, at `max_units` or after `busy_s` seconds of client busy
/// time, whichever comes first.
struct StopRule {
  int min_units = 1;
  int max_units = std::numeric_limits<int>::max();
  double busy_s = std::numeric_limits<double>::infinity();
  bool Done(const Phase& p) const {
    return p.units >= min_units &&
           (p.units >= max_units || p.busy_ms >= busy_s * 1e3);
  }
};

/// Exactly `units` units.
StopRule FixedUnits(int units) { return {units, units}; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string out_dir;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// An ordered metric list rendered as the result object's "metrics".
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string RenderMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + JsonEscape(metrics[i].name) +
           "\": {\"value\": " + value + ", \"unit\": \"" +
           JsonEscape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Uniform(i)]);
  }
}

// --- The client ------------------------------------------------------------

/// Drives one TemporalDB: timed operations, their checks, and (when a
/// trace is attached) spans plus replays of the calls the middleware
/// makes privately.
class Client {
 public:
  /// `prepare`: the statements every load prepares.
  Client(const WorkloadSpec& spec, const Dataset& data,
         std::vector<std::string> prepare)
      : data_(data),
        prepare_(std::move(prepare)),
        period_tables_(data.PeriodTables()) {
    options_.num_threads = spec.num_threads;
    oracle_ = options_;
    oracle_.use_cost_model = false;
    oracle_.use_timeline_index = false;
    oracle_.num_threads = 1;
    exec_.num_threads = options_.num_threads;
    exec_.use_timeline_index = options_.use_timeline_index;
    exec_.use_cost_model = options_.use_cost_model;
  }

  /// Replaces the database with a freshly set-up one.
  periodk::Status Load(SetupTimes* times) {
    db_.reset();
    db_ = std::make_unique<TemporalDB>(data_.domain, options_);
    return SetUp(db_.get(), data_, prepare_, times);
  }

  TemporalDB& db() { return *db_; }
  const periodk::RewriteOptions& oracle() const { return oracle_; }
  void set_trace(Trace* trace) { trace_ = trace; }

  /// One query op: Prepare + Execute, timed.  Fills `result`, `stats`
  /// and `plan`; false (with `error`) on an error Status or an engine
  /// exception.
  bool Query(const std::string& name, const std::string& sql, int64_t op,
             Phase* phase, Relation* result, ExecStats* stats, PlanPtr* plan_out,
             std::string* error) {
    const periodk::PlanCacheStats cache_before = db_->plan_cache_stats();
    const Clock::time_point t0 = Clock::now();
    periodk::Result<PlanPtr> plan = db_->Prepare(sql);
    const Clock::time_point t1 = Clock::now();
    const periodk::PlanCacheStats cache_after = db_->plan_cache_stats();
    bool ok = plan.ok();
    Clock::time_point t2 = Clock::now();
    Clock::time_point t3 = t2;
    if (ok) {
      try {
        *result = periodk::Execute(*plan, db_->catalog(), exec_, stats);
      } catch (const std::exception& e) {
        ok = false;
        *error = e.what();
      }
      t3 = Clock::now();
    } else {
      *error = plan.status().ToString();
    }
    if (plan.ok()) *plan_out = *plan;
    const double prepare_ms = MsBetween(t0, t1);
    const double execute_ms = MsBetween(t2, t3);
    const double op_ms = prepare_ms + execute_ms;
    const bool miss = cache_after.misses > cache_before.misses;
    phase->cache_hits += cache_after.hits - cache_before.hits;
    phase->cache_misses += cache_after.misses - cache_before.misses;
    phase->busy_ms += op_ms;
    ++phase->ops;
    if (ok) {
      phase->query_ms.push_back(op_ms);
      phase->template_ms[name].push_back(op_ms);
      phase->template_execute_ms[name].push_back(execute_ms);
      phase->prepare_ms.push_back(prepare_ms);
      phase->execute_ms.push_back(execute_ms);
      phase->nodes_executed += stats->nodes_executed;
      phase->memo_hits += stats->memo_hits;
      phase->rows_materialized += stats->rows_materialized;
      phase->template_rows_materialized[name] += stats->rows_materialized;
      phase->result_rows += static_cast<int64_t>(result->size());
      phase->parallel_tasks += stats->parallel_tasks;
      phase->cost_gated_fanouts += stats->cost_gated_fanouts;
      phase->index_timeslices += stats->index_timeslices;
      phase->index_delta_events += stats->index_delta_events;
    }
    if (trace_ != nullptr) {
      const int root = trace_->Record("op." + name, t0, t3, -1, op);
      const int prepare = trace_->Record("middleware.prepare", t0, t1, root, op);
      if (ok) trace_->Record("engine.execute", t2, t3, root, op);
      if (miss) ReplayPlanning(sql, prepare, op);
    }
    return ok;
  }

  /// One write op: InsertRows of `rows` into `table`, timed.
  bool Insert(const std::string& table, std::vector<Row> rows, int64_t op,
              Phase* phase, std::string* error) {
    std::shared_ptr<const Relation> old_relation;
    std::shared_ptr<const periodk::TimelineIndex> old_index;
    std::vector<Row> replay_rows;
    if (trace_ != nullptr) {
      old_relation = db_->catalog().GetShared(table);
      old_index = db_->catalog().GetIndex(table);
      replay_rows = rows;
    }
    const periodk::IndexMaintenanceStats maint_before =
        db_->index_maintenance_stats();
    const int64_t invalidations_before = db_->plan_cache_stats().invalidations;
    const Clock::time_point t0 = Clock::now();
    periodk::Status status = db_->InsertRows(table, std::move(rows));
    const Clock::time_point t1 = Clock::now();
    const bool compacted =
        db_->index_maintenance_stats().compactions > maint_before.compactions;
    const double op_ms = MsBetween(t0, t1);
    phase->busy_ms += op_ms;
    ++phase->ops;
    phase->invalidations +=
        db_->plan_cache_stats().invalidations - invalidations_before;
    if (!status.ok()) {
      *error = status.ToString();
      return false;
    }
    phase->write_ms.push_back(op_ms);
    phase->write_compacted.push_back(compacted);
    if (compacted) ++phase->compactions;
    if (trace_ != nullptr) {
      const int root = trace_->Record("op.write", t0, t1, -1, op);
      const int insert = trace_->Record("middleware.insert", t0, t1, root, op);
      ReplayWrite(old_relation, old_index, std::move(replay_rows), compacted,
                  insert, op);
    }
    return true;
  }

  /// Load() with a span per InsertRows, each followed by a replay of the
  /// TableStats::Collect that InsertRows runs while publishing.
  periodk::Status TracedLoad() {
    db_.reset();
    db_ = std::make_unique<TemporalDB>(data_.domain, options_);
    SetupTimes ignored;
    return SetUp(db_.get(), data_, prepare_, &ignored,
                 [this](const TableData& table, Clock::time_point start,
                        Clock::time_point end) {
                   const int root = trace_->Record("op.load", start, end, -1, -1);
                   const int insert = trace_->Record("middleware.insert", start,
                                                     end, root, -1);
                   const Clock::time_point t0 = Clock::now();
                   auto stats = periodk::TableStats::Collect(
                       db_->catalog().GetShared(table.name),
                       table.ColumnIndex(table.begin_column),
                       table.ColumnIndex(table.end_column));
                   trace_->Record("stats.collect", t0, Clock::now(), insert, -1,
                                  true);
                 });
  }

 private:
  /// Re-runs what Prepare does on a plan-cache miss through each layer's
  /// public function: parse, bind, REWR rewrite, AS-OF timeslice
  /// pushdown, cost-model strategy hints.
  void ReplayPlanning(const std::string& sql, int parent, int64_t op) {
    try {
      Clock::time_point t0 = Clock::now();
      periodk::Result<periodk::sql::Statement> parsed = periodk::sql::Parse(sql);
      Clock::time_point t1 = Clock::now();
      trace_->Record("sql.parse", t0, t1, parent, op, true);
      if (!parsed.ok()) return;
      periodk::sql::Binder binder(&db_->catalog(), &period_tables_);
      periodk::Result<periodk::sql::BoundStatement> bound = binder.Bind(*parsed);
      t0 = Clock::now();
      trace_->Record("sql.bind", t1, t0, parent, op, true);
      if (!bound.ok()) return;
      periodk::CostModel cost(&db_->catalog(), data_.domain);
      PlanPtr plan = bound->plan;
      if (bound->snapshot) {
        periodk::SnapshotRewriter rewriter(data_.domain, options_,
                                           bound->encoded_tables, &cost);
        plan = rewriter.Rewrite(plan);
      }
      t1 = Clock::now();
      trace_->Record("rewrite.rewrite", t0, t1, parent, op, true);
      if (bound->as_of.has_value()) {
        plan = periodk::PushDownTimeslice(
            periodk::MakeTimeslice(std::move(plan), *bound->as_of));
      }
      t0 = Clock::now();
      trace_->Record("rewrite.pushdown", t1, t0, parent, op, true);
      plan = periodk::ApplyJoinStrategyHints(plan, cost);
      trace_->Record("ra.hints", t0, Clock::now(), parent, op, true);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "planning replay failed: %s\n", e.what());
    }
  }

  /// Re-runs what InsertRows does on the copy-on-write path: row copy +
  /// ToColumnar, TableStats::Collect, TimelineIndex::WithDelta, and on a
  /// compacting write the full TimelineIndex::Build.
  void ReplayWrite(const std::shared_ptr<const Relation>& old_relation,
                   const std::shared_ptr<const periodk::TimelineIndex>& old_index,
                   std::vector<Row> rows, bool compacted, int parent,
                   int64_t op) {
    // Every generated table stores its period as the trailing columns.
    const int begin = static_cast<int>(old_relation->schema().size()) - 2;
    Clock::time_point t0 = Clock::now();
    Relation next = *old_relation;
    next.Reserve(next.size() + rows.size());
    for (Row& row : rows) next.AddRow(std::move(row));
    next.ToColumnar();
    auto shared = std::make_shared<const Relation>(std::move(next));
    Clock::time_point t1 = Clock::now();
    trace_->Record("engine.relation_encode", t0, t1, parent, op, true);
    auto stats = periodk::TableStats::Collect(shared, begin, begin + 1);
    t0 = Clock::now();
    trace_->Record("stats.collect", t1, t0, parent, op, true);
    if (old_index != nullptr) {
      auto delta = periodk::TimelineIndex::WithDelta(old_index, shared);
      t1 = Clock::now();
      trace_->Record("engine.index_delta", t0, t1, parent, op, true);
      t0 = t1;
    }
    if (compacted) {
      auto full = periodk::TimelineIndex::Build(
          shared, begin, begin + 1,
          periodk::CostModel::PickCheckpointInterval(*stats));
      trace_->Record("engine.index_build", t0, Clock::now(), parent, op, true);
    }
  }

  const Dataset& data_;
  const std::vector<std::string> prepare_;
  const std::map<std::string, periodk::sql::PeriodTableInfo> period_tables_;
  periodk::RewriteOptions options_;
  periodk::RewriteOptions oracle_;
  periodk::ExecOptions exec_;
  std::unique_ptr<TemporalDB> db_;
  Trace* trace_ = nullptr;
};

// --- Table 3 workloads -----------------------------------------------------

struct Expected {
  size_t rows = 0;           // row count of the benchmark configuration
  uint64_t bag_hash = 0;     // BagHash of the checked benchmark result
  uint64_t fingerprint = 0;  // canonical fingerprint of the oracle's result
  std::shared_ptr<const Relation> oracle;
};

/// A Table 3 result matches the oracle's when its fingerprint does or,
/// failing that, when it is equivalent up to rounding noise.
bool MatchesOracle(const Relation& result, const Expected& e) {
  return Fingerprint(result, true) == e.fingerprint ||
         EquivalentResults(result, *e.oracle, true);
}

void NoteError(Phase* phase, const std::string& what) {
  ++phase->failed;
  if (phase->failed <= 5) std::fprintf(stderr, "error: %s\n", what.c_str());
}

/// Runs every template once under the oracle options and once as a
/// benchmark op; keeps the oracle's result with the benchmark result's
/// row count and bag hash, and counts a template whose result does not
/// match the oracle's as failed.
std::map<std::string, Expected> CheckTable3(Client* client,
                                            const std::vector<Template>& templates,
                                            Phase* checks) {
  std::map<std::string, Expected> expected;
  for (const Template& t : templates) {
    ++checks->attempted;
    periodk::Result<Relation> oracle = client->db().Query(t.sql, client->oracle());
    if (!oracle.ok()) {
      NoteError(checks, t.name + " (oracle): " + oracle.status().ToString());
      continue;
    }
    Relation result;
    ExecStats stats;
    PlanPtr plan;
    std::string error;
    if (!client->Query(t.name, t.sql, -1, checks, &result, &stats, &plan,
                       &error)) {
      NoteError(checks, t.name + ": " + error);
      continue;
    }
    auto oracle_result = std::make_shared<const Relation>(std::move(*oracle));
    Expected e{result.size(), BagHash(result), Fingerprint(*oracle_result, true),
               oracle_result};
    if (!MatchesOracle(result, e)) {
      NoteError(checks, t.name + ": result differs from the oracle's");
    }
    expected[t.name] = e;
  }
  return expected;
}

/// Rounds of every template, each in a seeded order, until `stop`.
void RunTable3(Client* client, const std::vector<Template>& templates,
               const std::map<std::string, Expected>& expected, uint64_t seed,
               const StopRule& stop, Phase* phase) {
  Rng order_rng(seed ^ 0x0de7'0001ULL);
  std::vector<size_t> order(templates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const int64_t faults_before = MinorFaults();
  int64_t op = 0;
  while (!stop.Done(*phase)) {
    Shuffle(&order, &order_rng);
    for (size_t index : order) {
      const Template& t = templates[index];
      ++phase->attempted;
      Relation result;
      ExecStats stats;
      PlanPtr plan;
      std::string error;
      if (!client->Query(t.name, t.sql, op++, phase, &result, &stats, &plan,
                         &error)) {
        NoteError(phase, t.name + ": " + error);
        continue;
      }
      // An exact repeat of the checked result passes on its bag hash;
      // anything else must still match the oracle's result.
      auto e = expected.find(t.name);
      if (e == expected.end() || result.size() != e->second.rows ||
          (BagHash(result) != e->second.bag_hash &&
           !MatchesOracle(result, e->second))) {
        NoteError(phase, t.name + ": wrong result");
      }
    }
    ++phase->units;
  }
  phase->minor_faults = MinorFaults() - faults_before;
}

// --- asof-serving ----------------------------------------------------------

/// The seeded stream of asof-serving operations.
class AsOfStream {
 public:
  AsOfStream(const Dataset& data, uint64_t seed)
      : rng_(seed ^ 0xa50f'0002ULL), sample_rng_(seed ^ 0xa50f'0003ULL) {
    domain_ = data.domain;
    // Reads ask about any time but the domain's first year.
    std::vector<int64_t> times;
    for (int64_t x = domain_.tmin + kRecentDays; x < domain_.tmax; ++x) {
      times.push_back(x);
    }
    times_.assign(AsOfTemplates().size(), times);
    const TableData& employees = data.Table("employees");
    const int emp_no = employees.ColumnIndex("emp_no");
    const int emp_begin = employees.ColumnIndex(employees.begin_column);
    const int emp_end = employees.ColumnIndex(employees.end_column);
    for (const Row& row : employees.rows) {
      employees_.push_back({row[emp_begin].AsInt(), row[emp_end].AsInt(),
                            row[emp_no].AsInt()});
      next_emp_ = std::max(next_emp_, row[emp_no].AsInt() + 1);
    }
    const TableData& salaries = data.Table("salaries");
    const int salary_emp = salaries.ColumnIndex("emp_no");
    for (const Row& row : salaries.rows) {
      next_emp_ = std::max(next_emp_, row[salary_emp].AsInt() + 1);
    }
    const TableData& dept_emp = data.Table("dept_emp");
    const int dept_begin = dept_emp.ColumnIndex(dept_emp.begin_column);
    const int dept_end = dept_emp.ColumnIndex(dept_emp.end_column);
    for (const Row& row : dept_emp.rows) {
      dept_emp_.push_back({row[dept_begin].AsInt(), row[dept_end].AsInt(), 0});
    }
  }

  /// Reads each template can take in one cycle before it runs out of
  /// unused times.
  size_t TimesPerTemplate() const { return times_[0].size(); }

  /// Starts a cycle (and must precede its first NextTriple) on a freshly
  /// loaded database, whose plan cache is empty: every read of a template
  /// in the cycle uses a time that template has not used before in it.
  void StartCycle() {
    for (std::vector<int64_t>& times : times_) Shuffle(&times, &rng_);
    next_time_.assign(times_.size(), 0);
  }

  struct Read {
    size_t template_index;
    int64_t t;
    int64_t key;
    bool oracle;
  };

  /// The next three reads: one of each template, in a seeded order.  A
  /// cycle takes at most TimesPerTemplate() triples.
  std::vector<Read> NextTriple() {
    std::vector<size_t> order = {0, 1, 2};
    Shuffle(&order, &rng_);
    std::vector<Read> reads;
    for (size_t index : order) {
      Read read{index, times_[index][next_time_[index]++], -1,
                sample_rng_.Uniform(kOracleSampleEvery) == 0};
      if (AsOfTemplateTakesKey(index)) {
        std::vector<int64_t> alive;
        for (const Interval& e : employees_) {
          if (e.begin <= read.t && read.t < e.end) alive.push_back(e.key);
        }
        if (alive.empty()) throw std::runtime_error("no employee alive");
        read.key = alive[rng_.Uniform(alive.size())];
      }
      reads.push_back(read);
    }
    return reads;
  }

  /// A batch of new salaries rows for newly hired employees, valid from
  /// a day of the domain's last year until its end.
  std::vector<Row> NextBatch() {
    std::vector<Row> rows;
    for (int i = 0; i < kWriteRows; ++i) {
      const int64_t begin = rng_.Range(domain_.tmax - kRecentDays,
                                       domain_.tmax - 2);
      rows.push_back({Value::Int(next_emp_++), Value::Int(rng_.Range(40000, 150000)),
                      Value::Int(begin), Value::Int(domain_.tmax)});
    }
    return rows;
  }

  /// dept_emp rows alive at t: what the headcounts must sum to.
  int64_t DeptEmpAlive(int64_t t) const {
    int64_t alive = 0;
    for (const Interval& d : dept_emp_) alive += d.begin <= t && t < d.end;
    return alive;
  }

 private:
  struct Interval {
    int64_t begin;
    int64_t end;
    int64_t key;
  };
  Rng rng_;
  Rng sample_rng_;
  periodk::TimeDomain domain_;
  std::vector<std::vector<int64_t>> times_;
  std::vector<size_t> next_time_;
  std::vector<Interval> employees_;
  std::vector<Interval> dept_emp_;
  int64_t next_emp_ = 0;
};

/// Checks one AS-OF read: its index use, its shape, and (for sampled
/// reads) its fingerprint against the oracle options.
bool CheckRead(Client* client, const AsOfStream& stream,
               const AsOfStream::Read& read, const std::string& sql,
               const PlanPtr& plan, const Relation& result,
               const ExecStats& stats, Phase* phase, std::string* error) {
  // The index check: every timeslice the plan puts over a scan must have
  // been answered from a timeline index, never by the scan path.
  const int indexable = CountIndexableTimeslices(plan);
  if (stats.index_timeslices != indexable) {
    *error = "index timeslices " + std::to_string(stats.index_timeslices) +
             " != " + std::to_string(indexable) + " in the plan";
    return false;
  }
  if (AsOfTemplateTakesKey(read.template_index)) {
    if (result.size() != 1 || result.rows()[0][0].AsInt() != read.key) {
      *error = "expected one row for key " + std::to_string(read.key);
      return false;
    }
  } else {
    int64_t total = 0;
    for (const Row& row : result.rows()) total += row[1].AsInt();
    if (total != stream.DeptEmpAlive(read.t)) {
      *error = "headcounts do not sum to the rows alive";
      return false;
    }
  }
  if (read.oracle) {
    ++phase->oracle_checks;
    periodk::Result<Relation> oracle = client->db().Query(sql, client->oracle());
    if (!oracle.ok() ||
        (Fingerprint(*oracle, false) != Fingerprint(result, false) &&
         !EquivalentResults(result, *oracle, false))) {
      *error = "result differs from the oracle's";
      return false;
    }
  }
  return true;
}

/// Cycles of kUnitWrites steps, each kReadsPerWrite reads and one write,
/// until `stop`.  Every cycle after the first starts from a freshly
/// loaded database (untimed, its page faults not counted), so every cycle
/// serves the same table sizes however many cycles the run measures.
/// Throws when the domain has too few time points for a cycle's reads.
void RunAsOf(Client* client, const Dataset& data, uint64_t seed,
             const StopRule& stop, Phase* phase) {
  const std::vector<Template> templates = AsOfTemplates();
  AsOfStream stream(data, seed);
  const size_t reads_per_template =
      size_t{kUnitWrites} * kReadsPerWrite / templates.size();
  if (stream.TimesPerTemplate() < reads_per_template) {
    throw std::runtime_error(
        "a cycle needs " + std::to_string(reads_per_template) +
        " time points per template; the domain has " +
        std::to_string(stream.TimesPerTemplate()));
  }
  int64_t faults = 0;
  int64_t op = 0;
  while (!stop.Done(*phase)) {
    if (phase->units > 0) {
      SetupTimes times;
      periodk::Status status = client->Load(&times);
      if (!status.ok()) {
        throw std::runtime_error("reload failed: " + status.ToString());
      }
      phase->reload_s.push_back(times.total());
    }
    const int64_t faults_before = MinorFaults();
    stream.StartCycle();
    size_t expected_salaries = client->db().catalog().Get("salaries").size();
    std::vector<AsOfStream::Read> pending;
    for (int w = 0; w < kUnitWrites; ++w) {
      for (int r = 0; r < kReadsPerWrite; ++r) {
        if (pending.empty()) {
          pending = stream.NextTriple();
          std::reverse(pending.begin(), pending.end());
        }
        const AsOfStream::Read read = pending.back();
        pending.pop_back();
        const Template& t = templates[read.template_index];
        const std::string sql = Instantiate(t.sql, read.t, read.key);
        ++phase->attempted;
        Relation result;
        ExecStats stats;
        PlanPtr plan;
        std::string error;
        if (!client->Query(t.name, sql, op++, phase, &result, &stats, &plan,
                           &error) ||
            !CheckRead(client, stream, read, sql, plan, result, stats, phase,
                       &error)) {
          NoteError(phase, t.name + " @" + std::to_string(read.t) + ": " + error);
        }
      }
      ++phase->attempted;
      std::string error;
      if (!client->Insert("salaries", stream.NextBatch(), op++, phase, &error)) {
        NoteError(phase, "InsertRows: " + error);
        continue;
      }
      expected_salaries += kWriteRows;
      if (client->db().catalog().Get("salaries").size() != expected_salaries) {
        NoteError(phase, "salaries row count is wrong after a write");
      }
    }
    faults += MinorFaults() - faults_before;
    ++phase->units;
  }
  phase->minor_faults = faults;
}

// --- Metrics ---------------------------------------------------------------

std::vector<Metric> EndToEnd(const WorkloadSpec& spec, const Phase& p,
                             int64_t attempted, int64_t failed, double setup_s,
                             double peak_rss_mb) {
  std::vector<double> means;
  for (const auto& [name, samples] : p.template_ms) {
    means.push_back(TrimmedMean(samples, kTemplateTrim));
  }
  std::vector<Metric> m = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"qps", Ratio(static_cast<double>(p.ops), p.busy_ms / 1e3), "1/s"},
      {"query_geomean_ms", GeometricMean(means), "ms"},
      {"query_p95_ms", NearestRank(p.query_ms, 95), "ms"},
  };
  if (spec.asof) {
    m.push_back({"read_p99_ms", NearestRank(p.query_ms, 99), "ms"});
    m.push_back({"write_p50_ms", NearestRank(p.write_ms, 50), "ms"});
    m.push_back({"write_p90_ms", NearestRank(p.write_ms, 90), "ms"});
  }
  m.push_back({"error_rate",
               Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
               "ratio"});
  return m;
}

double SpanMeanMs(const std::map<std::string, Trace::NameTotals>& totals,
                  const std::string& name) {
  auto it = totals.find(name);
  return it == totals.end() ? 0.0
                            : Ratio(it->second.total_ms,
                                    static_cast<double>(it->second.count));
}

std::vector<Metric> PerLayer(const Phase& untraced, const Phase& traced,
                             const Trace& trace,
                             const std::vector<SetupTimes>& setups,
                             double first_load_s, double calib_ms) {
  const auto totals = trace.Totals();
  std::vector<double> load, warm, compacting, plain;
  for (const SetupTimes& s : setups) {
    load.push_back(s.load_s);
    warm.push_back(s.warm_s);
  }
  for (size_t i = 0; i < traced.write_ms.size(); ++i) {
    (traced.write_compacted[i] ? compacting : plain).push_back(traced.write_ms[i]);
  }
  // Coverage: replayed time over the real spans that have replays.
  const std::vector<Span>& spans = trace.spans();
  std::set<int> replayed_parents;
  double replay_ms = 0.0;
  for (const Span& s : spans) {
    if (!s.replay || s.parent < 0) continue;
    replay_ms += s.ms();
    replayed_parents.insert(s.parent);
  }
  double parent_ms = 0.0;
  for (int parent : replayed_parents) {
    parent_ms += spans[static_cast<size_t>(parent)].ms();
  }
  const double queries = static_cast<double>(traced.query_ms.size());
  double query_busy = 0.0;
  for (double ms : traced.query_ms) query_busy += ms;
  double execute_total = 0.0;
  for (double ms : traced.execute_ms) execute_total += ms;
  const double qps_traced = Ratio(static_cast<double>(traced.ops), traced.busy_ms);
  const double qps_untraced =
      Ratio(static_cast<double>(untraced.ops), untraced.busy_ms);
  const double stall =
      compacting.empty() || plain.empty()
          ? 0.0
          : NearestRank(compacting, 50) - NearestRank(plain, 50);
  return {
      {"sql.parse_us", SpanMeanMs(totals, "sql.parse") * 1e3, "us"},
      {"sql.bind_us", SpanMeanMs(totals, "sql.bind") * 1e3, "us"},
      {"rewrite.rewrite_us", SpanMeanMs(totals, "rewrite.rewrite") * 1e3, "us"},
      {"rewrite.pushdown_us", SpanMeanMs(totals, "rewrite.pushdown") * 1e3, "us"},
      {"ra.hints_us", SpanMeanMs(totals, "ra.hints") * 1e3, "us"},
      {"middleware.prepare_us", NearestRank(traced.prepare_ms, 50) * 1e3, "us"},
      {"middleware.plan_cache_hit_ratio",
       Ratio(static_cast<double>(traced.cache_hits),
             static_cast<double>(traced.cache_hits + traced.cache_misses)),
       "ratio"},
      {"middleware.plan_cache_invalidations",
       static_cast<double>(traced.invalidations), "count"},
      {"middleware.insert_ms", NearestRank(traced.write_ms, 50), "ms"},
      {"middleware.compactions", static_cast<double>(traced.compactions), "count"},
      {"middleware.compaction_stall_ms", stall, "ms"},
      {"middleware.load_s", NearestRank(load, 50), "s"},
      {"middleware.warm_s", NearestRank(warm, 50), "s"},
      {"middleware.first_load_s", first_load_s, "s"},
      {"engine.execute_ms", Ratio(execute_total, queries), "ms"},
      {"engine.execute_share", Ratio(execute_total, query_busy), "ratio"},
      {"engine.rows_materialized",
       Ratio(static_cast<double>(traced.rows_materialized), queries), "rows/op"},
      {"engine.materialized_per_result_row",
       Ratio(static_cast<double>(traced.rows_materialized),
             static_cast<double>(traced.result_rows)),
       "ratio"},
      {"engine.nodes_executed",
       Ratio(static_cast<double>(traced.nodes_executed), queries), "nodes/op"},
      {"engine.memo_hits", Ratio(static_cast<double>(traced.memo_hits), queries),
       "hits/op"},
      {"engine.minor_faults_per_op",
       Ratio(static_cast<double>(traced.minor_faults),
             static_cast<double>(traced.ops)),
       "faults/op"},
      {"engine.parallel_tasks",
       Ratio(static_cast<double>(traced.parallel_tasks), queries), "tasks/op"},
      {"engine.cost_gated_fanouts",
       Ratio(static_cast<double>(traced.cost_gated_fanouts), queries),
       "fanouts/op"},
      {"engine.index_timeslices_per_read",
       Ratio(static_cast<double>(traced.index_timeslices), queries), "ratio"},
      {"engine.index_delta_events_per_read",
       Ratio(static_cast<double>(traced.index_delta_events), queries),
       "events/op"},
      {"engine.index_build_ms", SpanMeanMs(totals, "engine.index_build"), "ms"},
      {"engine.index_delta_ms", SpanMeanMs(totals, "engine.index_delta"), "ms"},
      {"engine.relation_encode_ms", SpanMeanMs(totals, "engine.relation_encode"),
       "ms"},
      {"stats.collect_ms", SpanMeanMs(totals, "stats.collect"), "ms"},
      {"trace.overhead", Ratio(qps_traced, qps_untraced), "ratio"},
      {"trace.coverage", Ratio(replay_ms, parent_ms), "ratio"},
      {"host.calib_ms", calib_ms, "ms"},
  };
}

/// Per-template breakdown (report only; template names differ per
/// workload).  Traced runs add each template's planning share and the
/// total self time of every span name.
std::vector<Metric> PerTemplate(const Phase& p) {
  std::vector<Metric> m;
  for (const auto& [name, samples] : p.template_ms) {
    const double runs = static_cast<double>(samples.size());
    m.push_back({"query_ms." + name, TrimmedMean(samples, kTemplateTrim), "ms"});
    m.push_back({"engine.execute_ms." + name,
                 NearestRank(p.template_execute_ms.at(name), 50), "ms"});
    auto rows = p.template_rows_materialized.find(name);
    m.push_back({"engine.rows_materialized." + name,
                 Ratio(rows == p.template_rows_materialized.end()
                           ? 0.0
                           : static_cast<double>(rows->second),
                       runs),
                 "rows/op"});
  }
  return m;
}

/// Share of each template's operation time that its planning replays
/// explain (report only; templates with plan-cache misses).
std::vector<Metric> PlanningShares(const Trace& trace) {
  const std::vector<Span>& spans = trace.spans();
  std::map<std::string, double> planning;
  std::map<std::string, double> total;
  for (const Span& s : spans) {
    if (s.parent < 0) {
      total[s.name] += s.ms();
    } else if (s.replay &&
               spans[static_cast<size_t>(s.parent)].name == "middleware.prepare") {
      const int root = spans[static_cast<size_t>(s.parent)].parent;
      planning[spans[static_cast<size_t>(root)].name] += s.ms();
    }
  }
  std::vector<Metric> m;
  for (const auto& [root, ms] : planning) {
    m.push_back({"trace.planning_share." + root.substr(3), Ratio(ms, total[root]),
                 "ratio"});
  }
  return m;
}

// --- Main ------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--commit") {
      args->commit = value;
    } else if (key == "--source-digest") {
      args->source_digest = value;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Run(const Args& args, const WorkloadSpec& spec) {
  const Clock::time_point wall_start = Clock::now();
  const double calib_before = CalibrationMs();

  // Inputs (never timed).  The harness keeps its own copy of them.
  std::vector<Template> templates;
  Dataset data;
  if (spec.name == "tpcbih-table3") {
    data = GenerateTpcBih(args.seed, kScaleFactor);
    templates = TpcBihTemplates();
  } else {
    data = GenerateEmployees(args.seed, kEmployees);
    templates = spec.asof ? AsOfTemplates() : EmployeeTemplates();
  }
  const bool rss_reset = ResetPeakRss();

  // Set-up: one cold load, then kSetupLoads fresh loads; setup_s is the
  // median of those and of the fresh load that starts each measured
  // asof-serving cycle, so it samples the host across the whole run.
  // AS-OF templates are prepared at the domain's first time point, which
  // no measured read uses.
  std::vector<std::string> prepare;
  for (const Template& t : templates) {
    prepare.push_back(Instantiate(t.sql, data.domain.tmin, 10001));
  }
  Client client(spec, data, std::move(prepare));
  Phase checks;
  std::vector<SetupTimes> setups;
  double first_load_s = 0.0;
  for (int i = 0; i <= kSetupLoads; ++i) {
    SetupTimes times;
    periodk::Status status = client.Load(&times);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    if (i == 0) {
      first_load_s = times.total();
    } else {
      setups.push_back(times);
    }
  }

  // Output checks before timing, then one untimed warm round.
  std::map<std::string, Expected> expected;
  auto warm_up = [&] {
    Phase warm;
    RunTable3(&client, templates, expected, args.seed, FixedUnits(1), &warm);
    checks.attempted += warm.attempted;
    checks.failed += warm.failed;
  };
  if (!spec.asof) {
    expected = CheckTable3(&client, templates, &checks);
    warm_up();
  }

  Phase measured;  // untraced
  Phase traced;
  Trace trace;
  // Untraced: whole units until --seconds of busy time.  Traced: the same
  // fixed number of units in both halves.
  const StopRule stop =
      args.trace ? FixedUnits(TracedUnits(spec, args.seconds))
                 : StopRule{spec.min_units, std::numeric_limits<int>::max(),
                            static_cast<double>(args.seconds)};
  auto run_phase = [&](Phase* phase) {
    if (spec.asof) {
      RunAsOf(&client, data, args.seed, stop, phase);
    } else {
      RunTable3(&client, templates, expected, args.seed, stop, phase);
    }
  };
  run_phase(&measured);
  if (args.trace) {
    // The traced phase runs the same stream on a freshly loaded database:
    // Table 3 loads traced (its only write path) and warms up again.
    client.set_trace(&trace);
    SetupTimes ignored;
    periodk::Status status =
        spec.asof ? client.Load(&ignored) : client.TracedLoad();
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    if (!spec.asof) {
      client.set_trace(nullptr);
      warm_up();
      client.set_trace(&trace);
    }
    run_phase(&traced);
    client.set_trace(nullptr);
  }
  const double calib_after = CalibrationMs();
  const double peak_rss_mb = PeakRssMb();
  std::vector<double> setup_totals = measured.reload_s;
  for (const SetupTimes& s : setups) setup_totals.push_back(s.total());
  const double setup_s = NearestRank(setup_totals, 50);
  const double calib_ms = (calib_before + calib_after) / 2.0;

  const int64_t attempted =
      checks.attempted + measured.attempted + traced.attempted;
  const int64_t failed = checks.failed + measured.failed + traced.failed;
  std::vector<Metric> e2e =
      EndToEnd(spec, measured, attempted, failed, setup_s, peak_rss_mb);
  e2e.push_back({"host.calib_ms", calib_ms, "ms"});
  std::vector<Metric> layers;
  if (args.trace) {
    layers = PerLayer(measured, traced, trace, setups, first_load_s, calib_ms);
  }
  std::vector<Metric> per_template = PerTemplate(args.trace ? traced : measured);
  if (args.trace) {
    for (Metric& m : PlanningShares(trace)) per_template.push_back(std::move(m));
    for (const auto& [name, totals] : trace.Totals()) {
      per_template.push_back({"trace.self_ms." + name, totals.self_ms, "ms"});
    }
  }

  // Context + every metric, as one report line and (with --out-dir) a file.
  size_t rows = data.TotalRows();
  std::ostringstream context;
  context << "{\"workload\": \"" << spec.name << "\", \"seed\": " << args.seed
          << ", \"seconds\": " << args.seconds << ", \"trace\": " << args.trace
          << ", \"build_type\": \"" << E2E_BUILD_TYPE << "\", \"compiler\": \""
          << JsonEscape(E2E_COMPILER) << "\", \"nproc\": "
          << std::thread::hardware_concurrency() << ", \"commit\": \""
          << JsonEscape(args.commit) << "\", \"source_digest\": \""
          << JsonEscape(args.source_digest) << "\", \"tables\": "
          << data.tables.size() << ", \"rows\": " << rows
          << ", \"templates\": " << templates.size()
          << ", \"num_threads\": " << spec.num_threads
          << ", \"units\": " << (args.trace ? traced.units : measured.units)
          << ", \"ops\": " << measured.ops
          << ", \"queries\": " << measured.query_ms.size()
          << ", \"writes\": " << measured.write_ms.size()
          << ", \"busy_s\": " << measured.busy_ms / 1e3
          << ", \"setup_loads\": " << setup_totals.size()
          << ", \"oracle_checks\": " << checks.attempted + measured.oracle_checks
          << ", \"rss_reset\": " << (rss_reset ? "true" : "false")
          << ", \"calib_before_ms\": " << calib_before
          << ", \"calib_after_ms\": " << calib_after
          << ", \"wall_s\": " << MsBetween(wall_start, Clock::now()) / 1e3 << "}";
  std::vector<Metric> everything = e2e;
  everything.insert(everything.end(), layers.begin(), layers.end());
  everything.insert(everything.end(), per_template.begin(), per_template.end());
  const std::string report = "{\"context\": " + context.str() +
                             ", \"metrics\": " + RenderMetrics(everything) + "}";
  std::printf("%s\n", report.c_str());
  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + spec.name + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0");
    if (std::FILE* out = std::fopen((stem + ".json").c_str(), "w")) {
      std::fprintf(out, "%s\n", report.c_str());
      std::fclose(out);
    }
    if (args.trace && !trace.WriteJson(stem + "-spans.json")) {
      std::fprintf(stderr, "could not write %s-spans.json\n", stem.c_str());
    }
  }

  // The result line: every end-to-end metric untraced, every per-layer
  // one traced.  run.py keeps those BENCHMARK.json lists.
  const std::vector<Metric>& result = args.trace ? layers : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), RenderMetrics(result).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <id>] [--source-digest <hex>] "
                 "[--out-dir <dir>]\n");
    return 2;
  }
  if (std::strcmp(E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "refusing to measure a %s build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n", E2E_BUILD_TYPE);
    return 2;
  }
  std::optional<e2e::WorkloadSpec> spec = e2e::FindWorkload(args.workload);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  try {
    return e2e::Run(args, *spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
