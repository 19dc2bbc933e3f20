#include "workloads.h"

#include <set>
#include <stdexcept>

#include "datagen/employees.h"
#include "datagen/tpcbih.h"
#include "datagen/workloads.h"
#include "trace.h"

namespace e2e {

using periodk::Status;
using periodk::TemporalDB;

int TableData::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == column) return static_cast<int>(i);
  }
  throw std::out_of_range("no column " + column + " in " + name);
}

size_t Dataset::TotalRows() const {
  size_t total = 0;
  for (const TableData& table : tables) total += table.rows.size();
  return total;
}

const TableData& Dataset::Table(const std::string& name) const {
  for (const TableData& table : tables) {
    if (table.name == name) return table;
  }
  throw std::out_of_range("no generated table " + name);
}

std::map<std::string, periodk::sql::PeriodTableInfo> Dataset::PeriodTables()
    const {
  std::map<std::string, periodk::sql::PeriodTableInfo> info;
  for (const TableData& table : tables) {
    info[table.name] = {table.begin_column, table.end_column};
  }
  return info;
}

namespace {

/// Copies every table of a freshly generated database out of its
/// catalog.  Both generators store the period as (vt_begin, vt_end).
Dataset Extract(const TemporalDB& source) {
  Dataset data;
  data.domain = source.domain();
  for (const std::string& name : source.catalog().TableNames()) {
    const periodk::Relation& relation = source.catalog().Get(name);
    TableData table;
    table.name = name;
    for (const periodk::Column& column : relation.schema().columns()) {
      table.columns.push_back(column.name);
    }
    table.begin_column = "vt_begin";
    table.end_column = "vt_end";
    table.rows = relation.rows();
    data.tables.push_back(std::move(table));
  }
  return data;
}

void CheckGenerated(const Status& status) {
  if (!status.ok()) {
    throw std::runtime_error("input generation failed: " + status.ToString());
  }
}

std::vector<Template> FromWorkload(
    const std::vector<periodk::WorkloadQuery>& queries) {
  std::vector<Template> templates;
  for (const periodk::WorkloadQuery& q : queries) {
    templates.push_back({q.name, q.sql});
  }
  return templates;
}

void CollectTimeslices(const periodk::PlanPtr& plan,
                       std::set<const periodk::Plan*>* seen,
                       std::vector<std::string>* tables) {
  if (plan == nullptr || !seen->insert(plan.get()).second) return;
  if (plan->kind == periodk::PlanKind::kTimeslice && plan->left != nullptr &&
      plan->left->kind == periodk::PlanKind::kScan) {
    tables->push_back(plan->left->table);
  }
  CollectTimeslices(plan->left, seen, tables);
  CollectTimeslices(plan->right, seen, tables);
}

}  // namespace

Dataset GenerateEmployees(uint64_t seed, int num_employees) {
  periodk::EmployeesConfig config;
  config.num_employees = num_employees;
  config.seed = seed;
  TemporalDB source(config.domain);
  CheckGenerated(periodk::LoadEmployees(&source, config));
  return Extract(source);
}

Dataset GenerateTpcBih(uint64_t seed, double scale_factor) {
  periodk::TpcBihConfig config;
  config.scale_factor = scale_factor;
  config.seed = seed;
  TemporalDB source(config.domain);
  CheckGenerated(periodk::LoadTpcBih(&source, config));
  return Extract(source);
}

std::vector<Template> EmployeeTemplates() {
  return FromWorkload(periodk::EmployeeWorkload());
}

std::vector<Template> TpcBihTemplates() {
  return FromWorkload(periodk::TpcBihWorkload());
}

std::vector<Template> AsOfTemplates() {
  return {
      {"salary-lookup",
       "SEQ VT AS OF {t} (SELECT emp_no, salary FROM salaries "
       "WHERE emp_no = {k})"},
      {"title-join",
       "SEQ VT AS OF {t} (SELECT e.emp_no, e.first_name, e.last_name, "
       "t.title FROM employees e, titles t "
       "WHERE e.emp_no = t.emp_no AND e.emp_no = {k})"},
      {"dept-headcount",
       "SEQ VT AS OF {t} (SELECT dept_no, count(*) AS headcount "
       "FROM dept_emp GROUP BY dept_no)"},
  };
}

bool AsOfTemplateTakesKey(size_t index) { return index < 2; }

std::string Instantiate(const std::string& sql, int64_t t, int64_t key) {
  std::string out;
  for (size_t i = 0; i < sql.size(); ++i) {
    if (sql.compare(i, 3, "{t}") == 0) {
      out += std::to_string(t);
      i += 2;
    } else if (sql.compare(i, 3, "{k}") == 0) {
      out += std::to_string(key);
      i += 2;
    } else {
      out += sql[i];
    }
  }
  return out;
}

Status SetUp(TemporalDB* db, const Dataset& data,
             const std::vector<std::string>& prepare, SetupTimes* times,
             const InsertHook& on_insert) {
  const Clock::time_point load_start = Clock::now();
  for (const TableData& table : data.tables) {
    Status status = db->CreatePeriodTable(table.name, table.columns,
                                          table.begin_column, table.end_column);
    if (!status.ok()) return status;
    const Clock::time_point insert_start = Clock::now();
    status = db->InsertRows(table.name, table.rows);
    if (!status.ok()) return status;
    if (on_insert) on_insert(table, insert_start, Clock::now());
  }
  const Clock::time_point warm_start = Clock::now();
  std::set<std::string> indexed;
  for (const std::string& sql : prepare) {
    periodk::Result<periodk::PlanPtr> plan = db->Prepare(sql);
    if (!plan.ok()) return plan.status();
    for (const std::string& table : IndexableTables(*plan)) {
      indexed.insert(table);
    }
  }
  // The first indexed read of a table builds and publishes its index;
  // Timeslice is the public call that does exactly that.
  for (const std::string& table : indexed) {
    periodk::Result<periodk::Relation> slice =
        db->Timeslice(table, data.domain.tmin);
    if (!slice.ok()) return slice.status();
  }
  const Clock::time_point end = Clock::now();
  times->load_s = MsBetween(load_start, warm_start) / 1e3;
  times->warm_s = MsBetween(warm_start, end) / 1e3;
  return Status::OK();
}

int CountIndexableTimeslices(const periodk::PlanPtr& plan) {
  return static_cast<int>(IndexableTables(plan).size());
}

std::vector<std::string> IndexableTables(const periodk::PlanPtr& plan) {
  std::set<const periodk::Plan*> seen;
  std::vector<std::string> tables;
  CollectTimeslices(plan, &seen, &tables);
  return tables;
}

}  // namespace e2e
