#include "datagen/tpcbih.h"

#include <algorithm>

#include "common/rng.h"
#include "common/str_util.h"

namespace periodk {

namespace {

const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                          "MIDDLE EAST"};
const char* kNations[25] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "RUSSIA", "SAUDI ARABIA", "VIETNAM", "UNITED KINGDOM", "UNITED STATES"};
// TPC-H nation -> region mapping.
const int kNationRegion[25] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                               4, 0, 0, 0, 1, 2, 3, 3, 4, 2, 3, 3};
const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                           "MACHINERY", "HOUSEHOLD"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kShipModes[] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                            "TRUCK",   "MAIL", "FOB"};
const char* kShipInstruct[] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                               "TAKE BACK RETURN"};
const char* kContainers[] = {"SM CASE", "SM BOX",  "SM PACK", "SM PKG",
                             "MED BAG", "MED BOX", "MED PKG", "MED PACK",
                             "LG CASE", "LG BOX",  "LG PACK", "LG PKG"};
const char* kTypes[] = {"ECONOMY ANODIZED STEEL", "STANDARD POLISHED TIN",
                        "PROMO BURNISHED COPPER", "MEDIUM PLATED BRASS",
                        "SMALL BRUSHED NICKEL",   "PROMO PLATED STEEL",
                        "LARGE ANODIZED BRASS",   "STANDARD BRUSHED STEEL"};
const char* kColors[] = {"green", "blue", "red",    "ivory", "salmon",
                         "peach", "navy", "yellow", "azure", "rosy"};

int64_t ScaledCount(double base, double sf) {
  int64_t n = static_cast<int64_t>(base * sf);
  return n < 1 ? 1 : n;
}

}  // namespace

Status LoadTpcBih(TemporalDB* db, const TpcBihConfig& config) {
  Rng rng(config.seed);
  const TimePoint tmin = config.domain.tmin;
  const TimePoint tmax = config.domain.tmax;
  const double sf = config.scale_factor;

  struct TableDef {
    const char* name;
    std::vector<std::string> columns;
  };
  const TableDef tables[] = {
      {"region", {"r_regionkey", "r_name", "vt_begin", "vt_end"}},
      {"nation",
       {"n_nationkey", "n_name", "n_regionkey", "vt_begin", "vt_end"}},
      {"customer",
       {"c_custkey", "c_name", "c_acctbal", "c_nationkey", "c_mktsegment",
        "vt_begin", "vt_end"}},
      {"supplier",
       {"s_suppkey", "s_name", "s_nationkey", "s_acctbal", "vt_begin",
        "vt_end"}},
      {"part",
       {"p_partkey", "p_name", "p_type", "p_brand", "p_container", "p_size",
        "p_retailprice", "vt_begin", "vt_end"}},
      {"partsupp",
       {"ps_partkey", "ps_suppkey", "ps_supplycost", "ps_availqty",
        "vt_begin", "vt_end"}},
      {"orders",
       {"o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
        "o_orderdate", "o_orderpriority", "o_shippriority", "vt_begin",
        "vt_end"}},
      {"lineitem",
       {"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
        "l_extendedprice", "l_discount", "l_tax", "l_returnflag",
        "l_linestatus", "l_shipdate", "l_commitdate", "l_receiptdate",
        "l_shipmode", "l_shipinstruct", "vt_begin", "vt_end"}},
  };
  for (const TableDef& def : tables) {
    Status status =
        db->CreatePeriodTable(def.name, def.columns, "vt_begin", "vt_end");
    if (!status.ok()) return status;
  }

  // Row-at-a-time Insert() copies the stored columns per call; batch
  // the whole load and ship it per table at the end.
  BulkLoader loader(db);
  for (int r = 0; r < 5; ++r) {
    Status status =
        loader.Insert("region", {Value::Int(r), Value::String(kRegions[r]),
                              Value::Int(tmin), Value::Int(tmax)});
    if (!status.ok()) return status;
  }
  for (int n = 0; n < 25; ++n) {
    Status status = loader.Insert(
        "nation", {Value::Int(n), Value::String(kNations[n]),
                   Value::Int(kNationRegion[n]), Value::Int(tmin),
                   Value::Int(tmax)});
    if (!status.ok()) return status;
  }

  // Dimension rows get 1-3 versions whose periods partition
  // [birth, tmax); numeric attributes drift across versions.
  auto versioned = [&](TimePoint birth, auto emit) -> Status {
    int versions = 1 + static_cast<int>(rng.Uniform(3));
    TimePoint from = birth;
    for (int v = 0; v < versions && from < tmax; ++v) {
      TimePoint to = v == versions - 1
                         ? tmax
                         : std::min<TimePoint>(
                               tmax, from + rng.Range(200, (tmax - from) /
                                                                (versions - v) +
                                                            200));
      if (to <= from) to = tmax;
      Status status = emit(v, from, to);
      if (!status.ok()) return status;
      from = to;
    }
    return Status::OK();
  };

  const int64_t n_customers = ScaledCount(150000, sf);
  for (int64_t c = 1; c <= n_customers; ++c) {
    int64_t nation = static_cast<int64_t>(rng.Uniform(25));
    const char* segment = kSegments[rng.Uniform(5)];
    int64_t acctbal = rng.Range(-999, 9999);
    Status status = versioned(
        tmin, [&](int version, TimePoint from, TimePoint to) {
          return loader.Insert(
              "customer",
              {Value::Int(c), Value::String(StrCat("Customer#", c)),
               Value::Int(acctbal + version * 500), Value::Int(nation),
               Value::String(segment), Value::Int(from), Value::Int(to)});
        });
    if (!status.ok()) return status;
  }

  const int64_t n_suppliers = ScaledCount(10000, sf);
  for (int64_t s = 1; s <= n_suppliers; ++s) {
    int64_t nation = static_cast<int64_t>(rng.Uniform(25));
    int64_t acctbal = rng.Range(-999, 9999);
    Status status = versioned(
        tmin, [&](int version, TimePoint from, TimePoint to) {
          return loader.Insert(
              "supplier",
              {Value::Int(s), Value::String(StrCat("Supplier#", s)),
               Value::Int(nation), Value::Int(acctbal + version * 300),
               Value::Int(from), Value::Int(to)});
        });
    if (!status.ok()) return status;
  }

  const int64_t n_parts = ScaledCount(200000, sf);
  for (int64_t p = 1; p <= n_parts; ++p) {
    std::string name = StrCat(kColors[rng.Uniform(10)], " ",
                              kColors[rng.Uniform(10)], " part");
    std::string brand = StrCat("Brand#", 1 + rng.Uniform(5), 1 + rng.Uniform(5));
    Status status = loader.Insert(
        "part", {Value::Int(p), Value::String(name),
                 Value::String(kTypes[rng.Uniform(8)]), Value::String(brand),
                 Value::String(kContainers[rng.Uniform(12)]),
                 Value::Int(rng.Range(1, 50)),
                 Value::Double(900.0 + static_cast<double>(p % 1000)),
                 Value::Int(tmin), Value::Int(tmax)});
    if (!status.ok()) return status;
    // partsupp: 4 suppliers per part, with availability history.
    for (int i = 0; i < 4; ++i) {
      int64_t supp = 1 + static_cast<int64_t>(
                             rng.Uniform(static_cast<uint64_t>(n_suppliers)));
      int64_t cost = rng.Range(100, 1000);
      Status ps_status = versioned(
          tmin, [&](int version, TimePoint from, TimePoint to) {
            return loader.Insert(
                "partsupp",
                {Value::Int(p), Value::Int(supp), Value::Int(cost),
                 Value::Int(rng.Range(1, 9999) + version * 10),
                 Value::Int(from), Value::Int(to)});
          });
      if (!ps_status.ok()) return ps_status;
    }
  }

  const int64_t n_orders = ScaledCount(150000, sf) * 10;
  for (int64_t o = 1; o <= n_orders; ++o) {
    int64_t cust = 1 + static_cast<int64_t>(
                           rng.Uniform(static_cast<uint64_t>(n_customers)));
    TimePoint orderdate = tmin + rng.Range(0, tmax - tmin - 180);
    TimePoint death = std::min<TimePoint>(
        tmax, orderdate + rng.Range(30, 120));  // active life of the order
    Status status = loader.Insert(
        "orders",
        {Value::Int(o), Value::Int(cust),
         Value::String(rng.Chance(0.5) ? "F" : "O"),
         Value::Double(1000.0 + rng.NextDouble() * 400000.0),
         Value::Int(orderdate), Value::String(kPriorities[rng.Uniform(5)]),
         Value::Int(0), Value::Int(orderdate), Value::Int(death)});
    if (!status.ok()) return status;
    // 1..7 lineitems per order (TPC-H averages 4).
    int n_lines = 1 + static_cast<int>(rng.Uniform(7));
    for (int l = 0; l < n_lines; ++l) {
      int64_t part = 1 + static_cast<int64_t>(
                             rng.Uniform(static_cast<uint64_t>(n_parts)));
      int64_t supp = 1 + static_cast<int64_t>(
                             rng.Uniform(static_cast<uint64_t>(n_suppliers)));
      int64_t quantity = rng.Range(1, 50);
      double price = static_cast<double>(quantity) *
                     (900.0 + static_cast<double>(part % 1000));
      double discount = static_cast<double>(rng.Uniform(11)) / 100.0;
      double tax = static_cast<double>(rng.Uniform(9)) / 100.0;
      TimePoint shipdate = orderdate + rng.Range(1, 121);
      TimePoint commitdate = orderdate + rng.Range(30, 90);
      TimePoint receiptdate = shipdate + rng.Range(1, 30);
      Status li_status = loader.Insert(
          "lineitem",
          {Value::Int(o), Value::Int(part), Value::Int(supp),
           Value::Int(quantity), Value::Double(price),
           Value::Double(discount), Value::Double(tax),
           Value::String(rng.Chance(0.25) ? "R"
                                          : (rng.Chance(0.5) ? "A" : "N")),
           Value::String(rng.Chance(0.5) ? "O" : "F"), Value::Int(shipdate),
           Value::Int(commitdate), Value::Int(receiptdate),
           Value::String(kShipModes[rng.Uniform(7)]),
           Value::String(kShipInstruct[rng.Uniform(4)]),
           Value::Int(orderdate), Value::Int(death)});
      if (!li_status.ok()) return li_status;
    }
  }
  return loader.Flush();
}

}  // namespace periodk
