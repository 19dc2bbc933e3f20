#include "datagen/employees.h"

#include "common/rng.h"
#include "common/str_util.h"

namespace periodk {

namespace {

constexpr int kNumDepartments = 9;

const char* kDeptNames[kNumDepartments] = {
    "Marketing",       "Finance",           "Human Resources",
    "Production",      "Development",       "Quality Management",
    "Sales",           "Research",          "Customer Service"};

const char* kFirstNames[] = {"Georgi", "Bezalel", "Parto",  "Chirstian",
                             "Kyoichi", "Anneke", "Tzvetan", "Saniya",
                             "Sumant",  "Duangkaew"};
const char* kLastNames[] = {"Facello", "Simmel",   "Bamford", "Koblick",
                            "Maliniak", "Preusig", "Zielinski", "Kalloufi",
                            "Peac",     "Piveteau"};
const char* kTitles[] = {"Staff",           "Engineer",        "Senior Staff",
                         "Senior Engineer", "Technique Leader", "Manager"};

}  // namespace

Status LoadEmployees(TemporalDB* db, const EmployeesConfig& config) {
  Rng rng(config.seed);
  const TimePoint tmin = config.domain.tmin;
  const TimePoint tmax = config.domain.tmax;

  Status status = db->CreatePeriodTable(
      "departments", {"dept_no", "dept_name", "vt_begin", "vt_end"},
      "vt_begin", "vt_end");
  if (!status.ok()) return status;
  status = db->CreatePeriodTable(
      "employees",
      {"emp_no", "first_name", "last_name", "hire_date", "vt_begin", "vt_end"},
      "vt_begin", "vt_end");
  if (!status.ok()) return status;
  status = db->CreatePeriodTable(
      "salaries", {"emp_no", "salary", "vt_begin", "vt_end"}, "vt_begin",
      "vt_end");
  if (!status.ok()) return status;
  status = db->CreatePeriodTable(
      "titles", {"emp_no", "title", "vt_begin", "vt_end"}, "vt_begin",
      "vt_end");
  if (!status.ok()) return status;
  status = db->CreatePeriodTable(
      "dept_emp", {"emp_no", "dept_no", "vt_begin", "vt_end"}, "vt_begin",
      "vt_end");
  if (!status.ok()) return status;
  status = db->CreatePeriodTable(
      "dept_manager", {"dept_no", "emp_no", "vt_begin", "vt_end"}, "vt_begin",
      "vt_end");
  if (!status.ok()) return status;

  // Row-at-a-time Insert() copies the stored columns per call; batch
  // the whole load and ship it per table at the end.
  BulkLoader loader(db);
  for (int d = 0; d < kNumDepartments; ++d) {
    status = loader.Insert("departments",
                        {Value::String(StrCat("d", d + 1)),
                         Value::String(kDeptNames[d]), Value::Int(tmin),
                         Value::Int(tmax)});
    if (!status.ok()) return status;
  }

  for (int e = 0; e < config.num_employees; ++e) {
    int64_t emp_no = 10001 + e;
    // Hire somewhere in the first 60% of the domain so histories are
    // long enough for ~9 salary segments on average.
    TimePoint hire = tmin + rng.Range(0, (tmax - tmin) * 6 / 10);
    status = loader.Insert(
        "employees",
        {Value::Int(emp_no), Value::String(kFirstNames[rng.Uniform(10)]),
         Value::String(kLastNames[rng.Uniform(10)]), Value::Int(hire),
         Value::Int(hire), Value::Int(tmax)});
    if (!status.ok()) return status;

    // Salaries: raises on (365-day) calendar year boundaries, like the
    // real dataset where from_date clusters on review dates.  The
    // clustering is what makes the paper's pre-aggregation optimization
    // effective: many tuples share identical (group, begin, end) cells.
    int64_t salary = rng.Range(38000, 70000);
    TimePoint from = hire;
    while (from < tmax) {
      TimePoint to = (from / 365 + 1) * 365;
      if (to > tmax) to = tmax;
      status = loader.Insert("salaries", {Value::Int(emp_no), Value::Int(salary),
                                       Value::Int(from), Value::Int(to)});
      if (!status.ok()) return status;
      salary += rng.Range(500, 4500);
      from = to;
    }

    // Titles: one to three career steps partitioning [hire, tmax).
    int steps = 1 + static_cast<int>(rng.Uniform(3));
    TimePoint title_from = hire;
    int title_idx = static_cast<int>(rng.Uniform(3));
    for (int s = 0; s < steps && title_from < tmax; ++s) {
      TimePoint title_to =
          s == steps - 1 ? tmax
                         : title_from + rng.Range(365, (tmax - title_from) /
                                                               (steps - s) +
                                                           365);
      if (title_to > tmax) title_to = tmax;
      status = loader.Insert("titles",
                          {Value::Int(emp_no),
                           Value::String(kTitles[title_idx % 6]),
                           Value::Int(title_from), Value::Int(title_to)});
      if (!status.ok()) return status;
      title_from = title_to;
      ++title_idx;
    }

    // Department assignments: most employees stay put, some move once.
    int64_t dept = 1 + static_cast<int64_t>(rng.Uniform(kNumDepartments));
    if (rng.Chance(0.12) && tmax - hire > 730) {
      TimePoint move = hire + rng.Range(365, tmax - hire - 180);
      status = loader.Insert("dept_emp", {Value::Int(emp_no),
                                       Value::String(StrCat("d", dept)),
                                       Value::Int(hire), Value::Int(move)});
      if (!status.ok()) return status;
      int64_t dept2 = 1 + static_cast<int64_t>(rng.Uniform(kNumDepartments));
      status = loader.Insert("dept_emp", {Value::Int(emp_no),
                                       Value::String(StrCat("d", dept2)),
                                       Value::Int(move), Value::Int(tmax)});
      if (!status.ok()) return status;
    } else {
      status = loader.Insert("dept_emp", {Value::Int(emp_no),
                                       Value::String(StrCat("d", dept)),
                                       Value::Int(hire), Value::Int(tmax)});
      if (!status.ok()) return status;
    }
  }

  // Managers: each department sees a succession of 3-5 managers drawn
  // from the employee pool (their on-duty periods partition the domain).
  for (int d = 0; d < kNumDepartments; ++d) {
    int terms = 3 + static_cast<int>(rng.Uniform(3));
    TimePoint from = tmin;
    for (int t = 0; t < terms && from < tmax; ++t) {
      TimePoint to =
          t == terms - 1
              ? tmax
              : from + (tmax - from) / (terms - t) + rng.Range(-200, 200);
      if (to <= from) to = from + 1;
      if (to > tmax) to = tmax;
      int64_t emp_no =
          10001 + static_cast<int64_t>(rng.Uniform(
                      static_cast<uint64_t>(config.num_employees)));
      status = loader.Insert("dept_manager",
                          {Value::String(StrCat("d", d + 1)),
                           Value::Int(emp_no), Value::Int(from),
                           Value::Int(to)});
      if (!status.ok()) return status;
      from = to;
    }
  }
  return loader.Flush();
}

}  // namespace periodk
