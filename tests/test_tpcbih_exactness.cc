// Exactness of the TPC-BiH Table 3 queries across plans: SUM and AVG
// are exactly rounded totals (engine/agg.h), so the answer depends on
// the query and the data only.  At SF 0.01, seeds 1-6, every query
// returns the same rows, bit for bit, with the cost model on or off and
// with pre-aggregation on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "datagen/tpcbih.h"
#include "datagen/workloads.h"
#include "middleware/temporal_db.h"

namespace periodk {
namespace {

// Cells of one type with equal values; doubles bit for bit.
bool IdenticalCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (const double* x = a.TryDouble()) {
    return std::bit_cast<uint64_t>(*x) ==
           std::bit_cast<uint64_t>(*b.TryDouble());
  }
  return a.Compare(b) == 0;
}

// True when `a` and `b` hold the same bag of rows, cell for cell
// identical.
bool IdenticalBags(const Relation& a, const Relation& b) {
  if (a.size() != b.size()) return false;
  std::vector<Row> x = a.rows();
  std::vector<Row> y = b.rows();
  const auto less = [](const Row& l, const Row& r) {
    return CompareRows(l, r) < 0;
  };
  std::sort(x.begin(), x.end(), less);
  std::sort(y.begin(), y.end(), less);
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].size() != y[i].size()) return false;
    for (size_t c = 0; c < x[i].size(); ++c) {
      if (!IdenticalCell(x[i][c], y[i][c])) return false;
    }
  }
  return true;
}

TEST(TpcBihExactnessTest, EveryPlanReturnsTheSameBits) {
  struct Axis {
    const char* name;
    void (*vary)(RewriteOptions*);
  };
  const Axis axes[] = {
      {"cost model off", [](RewriteOptions* o) { o->use_cost_model = false; }},
      {"pre-aggregation off",
       [](RewriteOptions* o) { o->pre_aggregate = false; }},
  };
  std::vector<std::vector<std::string>> differing(std::size(axes));
  int compared = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    TpcBihConfig config;
    config.scale_factor = 0.01;
    config.seed = seed;
    TemporalDB db(config.domain);
    ASSERT_TRUE(LoadTpcBih(&db, config).ok());
    for (const WorkloadQuery& q : TpcBihWorkload()) {
      RewriteOptions base;  // cost model and pre-aggregation on
      Result<Relation> want = db.Query(q.sql, base);
      ASSERT_TRUE(want.ok()) << q.name << ": " << want.status().ToString();
      for (size_t a = 0; a < std::size(axes); ++a) {
        RewriteOptions options = base;
        axes[a].vary(&options);
        Result<Relation> got = db.Query(q.sql, options);
        ASSERT_TRUE(got.ok()) << q.name << ": " << got.status().ToString();
        if (!IdenticalBags(*got, *want)) {
          differing[a].push_back(StrCat("seed ", seed, " ", q.name));
        }
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 6 * 11 * 2);
  for (size_t a = 0; a < std::size(axes); ++a) {
    std::string list;
    for (const std::string& d : differing[a]) list += "\n  " + d;
    EXPECT_TRUE(differing[a].empty())
        << axes[a].name << " changes " << differing[a].size()
        << " of 66 results:" << list;
  }
}

}  // namespace
}  // namespace periodk
