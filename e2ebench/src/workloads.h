// The benchmark's inputs: generated datasets (copied out of the
// generators' own TemporalDB, so loading them can be timed apart from
// generating them), the statement templates of each workload, and the
// set-up that turns a dataset into a TemporalDB ready to serve.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "middleware/temporal_db.h"

namespace e2e {

/// One generated period table.
struct TableData {
  std::string name;
  std::vector<std::string> columns;
  std::string begin_column;
  std::string end_column;
  std::vector<periodk::Row> rows;
  /// Position of a column; throws when absent.
  int ColumnIndex(const std::string& column) const;
};

struct Dataset {
  periodk::TimeDomain domain{0, 0};
  std::vector<TableData> tables;
  size_t TotalRows() const;
  const TableData& Table(const std::string& name) const;
  /// Period metadata in the form sql::Binder takes it.
  std::map<std::string, periodk::sql::PeriodTableInfo> PeriodTables() const;
};

/// The employees dataset (paper Sec. 10.3) at `num_employees`.
Dataset GenerateEmployees(uint64_t seed, int num_employees);
/// The TPC-BiH dataset (paper Sec. 10.4) at `scale_factor`.
Dataset GenerateTpcBih(uint64_t seed, double scale_factor);

struct Template {
  std::string name;
  std::string sql;  // AS-OF templates hold "{t}" and "{k}" placeholders
};

/// The Table 3 employee queries: join-1..4, agg-1..3, agg-join, diff-1/2.
std::vector<Template> EmployeeTemplates();
/// The Table 3 TPC-H queries under snapshot semantics.
std::vector<Template> TpcBihTemplates();
/// The three AS-OF read templates of asof-serving; every one but the
/// department headcount takes a key.
std::vector<Template> AsOfTemplates();
bool AsOfTemplateTakesKey(size_t index);
/// Substitutes the placeholders of an AS-OF template.
std::string Instantiate(const std::string& sql, int64_t t, int64_t key);

/// Wall time of each set-up step, in seconds.
struct SetupTimes {
  double load_s = 0.0;  // CreatePeriodTable + InsertRows of every table
  double warm_s = 0.0;  // Prepare of every template + first index builds
  double total() const { return load_s + warm_s; }
};

/// Called after each table's InsertRows with the call's start and end.
using InsertHook =
    std::function<void(const TableData&, std::chrono::steady_clock::time_point,
                       std::chrono::steady_clock::time_point)>;

/// Loads `data` into `db` (which must be empty), prepares every
/// statement in `prepare`, and builds the timeline index of every table
/// a prepared plan timeslices directly.  Returns the first failure.
periodk::Status SetUp(periodk::TemporalDB* db, const Dataset& data,
                      const std::vector<std::string>& prepare,
                      SetupTimes* times, const InsertHook& on_insert = nullptr);

/// Number of timeslice-over-scan nodes in a plan: the lookups the
/// executor answers from a timeline index when the table has one.
int CountIndexableTimeslices(const periodk::PlanPtr& plan);
/// The tables those nodes scan.
std::vector<std::string> IndexableTables(const periodk::PlanPtr& plan);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
