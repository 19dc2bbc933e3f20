// Column concatenation and copy-on-write appends (ColumnData::Concat,
// Relation::Concat, TableStats::Extend, TemporalDB::InsertRows):
// putting columns back to back, and extending the stored columns and
// statistics by a batch, must give exactly what re-encoding the
// concatenated cells and collecting statistics from scratch gives --
// the same column tag, null count, NaN flag and cells, a dictionary
// holding every string, and the same TableStats rendering -- across
// NULLs, -0.0 and NaN, strings under different dictionaries, new
// strings that shift the stored dictionary codes, parts that change a
// column's tag, empty and all-NULL parts, empty tables and
// non-trailing period columns.  Versions held from before an append
// must read unchanged after it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "engine/column.h"
#include "engine/executor.h"
#include "engine/relation.h"
#include "engine/temporal_ops.h"
#include "middleware/temporal_db.h"
#include "stats/table_stats.h"

namespace periodk {
namespace {

/// Same type and value; doubles bit for bit, so -0.0 and NaN count.
bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (const double* x = a.TryDouble()) {
    return std::bit_cast<uint64_t>(*x) ==
           std::bit_cast<uint64_t>(*b.TryDouble());
  }
  return a == b;
}

/// `got` has the tag, NULLs, NaN flag and cells of `want`.
void ExpectSameCells(const ColumnData& got, const ColumnData& want,
                     const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  ASSERT_EQ(ColumnTagName(got.tag()), std::string(ColumnTagName(want.tag())))
      << context;
  EXPECT_EQ(got.null_count(), want.null_count()) << context;
  EXPECT_EQ(got.has_nan(), want.has_nan()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.IsNull(i), want.IsNull(i)) << context << " row " << i;
    ASSERT_TRUE(SameCell(got.Get(i), want.Get(i)))
        << context << " row " << i << ": " << got.Get(i).ToString()
        << " vs " << want.Get(i).ToString();
  }
}

/// `got` is what ColumnData::Encode makes of column `col` of `rows`,
/// dictionary included.
void ExpectEncodes(const ColumnData& got, const std::vector<Row>& rows,
                   size_t col, const std::string& context) {
  const ColumnData want = ColumnData::Encode(rows, col);
  ExpectSameCells(got, want, context);
  if (want.tag() == ColumnTag::kString) {
    EXPECT_EQ(got.dict()->values(), want.dict()->values()) << context;
  }
}

std::vector<Row> Concat(std::vector<Row> head, const std::vector<Row>& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

/// `stored` followed by column `col` of `rows`, as an append builds it:
/// ColumnData::Concat of the stored column and the encoded batch.
ColumnData AppendColumn(const ColumnData& stored, const std::vector<Row>& rows,
                        size_t col) {
  const ColumnData batch = ColumnData::Encode(rows, col);
  return ColumnData::Concat({&stored, &batch});
}

/// `stored` followed by `rows`, as TemporalDB::InsertRows builds it.
Relation AppendRows(const Relation& stored, std::vector<Row> rows) {
  const Relation batch(stored.schema(), std::move(rows));
  return Relation::Concat(stored.schema(), {&stored, &batch});
}

/// The kinds of cell a generated column draws.
enum class Kind { kInt, kDouble, kBool, kString, kNull, kMixed };
constexpr Kind kKinds[] = {Kind::kInt,    Kind::kDouble, Kind::kBool,
                           Kind::kString, Kind::kNull,   Kind::kMixed};

/// Cell generator over a shared string pool.  Fresh strings are
/// sometimes built to sort before every string drawn so far ("!" plus a
/// falling counter, or the empty string), which shifts every stored
/// dictionary code when they arrive.
class Cells {
 public:
  explicit Cells(uint64_t seed) : rng_(seed) {}

  Value Draw(Kind kind, double null_share) {
    if (kind == Kind::kNull || rng_.Chance(null_share)) return Value::Null();
    if (kind == Kind::kMixed) {
      kind = kKinds[rng_.Uniform(4)];
    }
    switch (kind) {
      case Kind::kInt:
        return Value::Int(rng_.Range(-20, 20));
      case Kind::kDouble: {
        const uint64_t pick = rng_.Uniform(8);
        if (pick == 0) return Value::Double(-0.0);
        if (pick == 1) return Value::Double(0.0);
        if (pick == 2 && rng_.Chance(0.3)) {
          return Value::Double(std::numeric_limits<double>::quiet_NaN());
        }
        return Value::Double(static_cast<double>(rng_.Range(-8, 8)) / 4.0);
      }
      case Kind::kBool:
        return Value::Bool(rng_.Chance(0.5));
      default:
        return Value::String(DrawString());
    }
  }

  Rng& rng() { return rng_; }

 private:
  std::string DrawString() {
    if (!pool_.empty() && rng_.Chance(0.7)) {
      return pool_[rng_.Uniform(pool_.size())];
    }
    std::string s;
    if (rng_.Chance(0.3)) {
      s = rng_.Chance(0.1) ? "" : StrCat("!", 100000 - (++lowest_));
    } else {
      for (int64_t n = rng_.Range(1, 3); n > 0; --n) {
        s += static_cast<char>('a' + rng_.Uniform(6));
      }
    }
    pool_.push_back(s);
    return s;
  }

  Rng rng_;
  std::vector<std::string> pool_;
  int64_t lowest_ = 0;
};

// --- Appends through ColumnData::Concat -------------------------------------

TEST(ColumnAppendTest, RandomBatchesEqualEncodeOfConcatenation) {
  Cells cells(20261017);
  Rng& rng = cells.rng();
  const double null_shares[] = {0.0, 0.15, 1.0};
  for (int trial = 0; trial < 600; ++trial) {
    // A stored column of one kind; the batch mostly keeps it and
    // sometimes switches, which changes the tag.
    const Kind stored_kind = kKinds[rng.Uniform(6)];
    const Kind batch_kind =
        rng.Chance(0.7) ? stored_kind : kKinds[rng.Uniform(6)];
    const double stored_nulls = null_shares[rng.Uniform(3)];
    const double batch_nulls = null_shares[rng.Uniform(3)];
    // Lengths around the 64-bit validity words.
    const size_t lengths[] = {0, 1, 63, 64, 65, 130};
    const size_t m =
        rng.Chance(0.5) ? lengths[rng.Uniform(6)] : rng.Uniform(90);
    const size_t b = rng.Chance(0.2) ? 0 : rng.Uniform(70) + 1;
    std::vector<Row> stored_rows, batch;
    for (size_t i = 0; i < m; ++i) {
      stored_rows.push_back(
          {Value::Int(0), cells.Draw(stored_kind, stored_nulls)});
    }
    for (size_t i = 0; i < b; ++i) {
      batch.push_back({Value::Int(1), cells.Draw(batch_kind, batch_nulls)});
    }
    const ColumnData stored = ColumnData::Encode(stored_rows, 1);
    const ColumnData appended = AppendColumn(stored, batch, 1);
    const std::string context =
        StrCat("trial ", trial, ": ", m, " stored, ", b, " appended");
    ExpectEncodes(appended, Concat(stored_rows, batch), 1, context);
    // The stored column is an input, never touched.
    ExpectEncodes(stored, stored_rows, 1, context + " (stored)");
  }
}

TEST(ColumnAppendTest, NewStringsShiftStoredCodes) {
  std::vector<Row> stored_rows = {{Value::String("m")},
                                  {Value::Null()},
                                  {Value::String("q")},
                                  {Value::String("m")}};
  std::vector<Row> batch = {{Value::String("a")},
                            {Value::String("q")},
                            {Value::String("z")},
                            {Value::Null()},
                            {Value::String("")}};
  const ColumnData stored = ColumnData::Encode(stored_rows, 0);
  const ColumnData appended = AppendColumn(stored, batch, 0);
  ExpectEncodes(appended, Concat(stored_rows, batch), 0, "shifted");
  EXPECT_EQ(appended.dict()->values(),
            (std::vector<std::string>{"", "a", "m", "q", "z"}));
  // "m" was code 0 and is code 2 now; the stored column keeps code 0.
  EXPECT_EQ(stored.codes()[0], 0u);
  EXPECT_EQ(appended.codes()[0], 2u);
  EXPECT_EQ(stored.dict()->values(), (std::vector<std::string>{"m", "q"}));
}

TEST(ColumnAppendTest, KnownStringsShareTheDictionary) {
  std::vector<Row> stored_rows = {{Value::String("x")}, {Value::String("y")}};
  std::vector<Row> batch = {{Value::String("y")}, {Value::Null()}};
  const ColumnData stored = ColumnData::Encode(stored_rows, 0);
  const ColumnData appended = AppendColumn(stored, batch, 0);
  ExpectEncodes(appended, Concat(stored_rows, batch), 0, "shared");
  EXPECT_EQ(appended.dict(), stored.dict());
}

TEST(ColumnAppendTest, BatchesThatChangeTheTagReEncode) {
  const Row kNull = {Value::Null()};
  struct Case {
    std::vector<Row> stored;
    std::vector<Row> batch;
    ColumnTag tag;
  };
  const std::vector<Case> cases = {
      {{{Value::Int(1)}}, {{Value::Double(2.5)}}, ColumnTag::kMixed},
      {{{Value::Int(1)}}, {{Value::String("s")}}, ColumnTag::kMixed},
      {{kNull, kNull}, {{Value::String("s")}, kNull}, ColumnTag::kString},
      {{kNull}, {{Value::Double(-0.0)}}, ColumnTag::kDouble},
      {{}, {{Value::Bool(true)}}, ColumnTag::kBool},
      {{{Value::Double(1.0)}}, {{Value::Int(1)}}, ColumnTag::kMixed},
      {{{Value::Bool(false)}}, {{Value::Int(0)}}, ColumnTag::kMixed},
      {{{Value::Int(1)}, {Value::String("s")}}, {{Value::Bool(true)}},
       ColumnTag::kMixed},
      {{kNull}, {kNull}, ColumnTag::kInt},
  };
  for (size_t k = 0; k < cases.size(); ++k) {
    const ColumnData stored = ColumnData::Encode(cases[k].stored, 0);
    const ColumnData appended = AppendColumn(stored, cases[k].batch, 0);
    EXPECT_EQ(appended.tag(), cases[k].tag) << "case " << k;
    ExpectEncodes(appended, Concat(cases[k].stored, cases[k].batch), 0,
                  StrCat("case ", k));
  }
}

// --- ColumnData::Concat -----------------------------------------------------

/// One part of a concatenation: a column and the cells it holds.
struct Part {
  ColumnData column;
  std::vector<Row> cells;  // one single-cell row per row of `column`
};

/// Gathers rows `ids` of `source` (the column `encoded`).
Part GatherPart(const std::vector<Row>& source, const ColumnData& encoded,
                const std::vector<uint32_t>& ids) {
  Part part{ColumnData::Gather(encoded, ids), {}};
  for (uint32_t i : ids) part.cells.push_back(source[i]);
  return part;
}

TEST(ColumnConcatTest, RandomPartsEqualEncodeOfConcatenation) {
  Cells cells(20261021);
  Rng& rng = cells.rng();
  const double null_shares[] = {0.0, 0.2, 1.0};
  const size_t lengths[] = {0, 1, 63, 64, 65, 127, 128, 129};
  for (int trial = 0; trial < 2000; ++trial) {
    // Source columns, each Encode of cells of one kind.  A part is a
    // source as encoded; a gather from one, of a subset of its rows
    // (the dictionary keeps entries no gathered cell uses; two gathers
    // from one source share its dictionary object) or of its NULL rows
    // only (an all-NULL part under the source's tag); or Encode of a
    // subset of its cells, whose dictionary the source's holds.  A
    // gather from a kMixed column may hold one kind under kMixed, which
    // Encode never makes, so kMixed sources are gathered only for their
    // NULL rows.
    std::vector<std::vector<Row>> sources(1 + rng.Uniform(3));
    std::vector<Kind> kinds;
    std::vector<ColumnData> encoded;
    for (std::vector<Row>& source : sources) {
      const Kind kind = kKinds[rng.Uniform(6)];
      const double null_share = null_shares[rng.Uniform(3)];
      const size_t n =
          rng.Chance(0.5) ? lengths[rng.Uniform(8)] : rng.Uniform(100);
      for (size_t i = 0; i < n; ++i) {
        source.push_back({cells.Draw(kind, null_share)});
      }
      kinds.push_back(kind);
      encoded.push_back(ColumnData::Encode(source, 0));
    }
    std::vector<Part> parts;
    const size_t k = 1 + rng.Uniform(4);
    for (size_t p = 0; p < k; ++p) {
      const size_t s = rng.Uniform(sources.size());
      const uint64_t form = rng.Uniform(4);
      std::vector<uint32_t> ids;
      for (uint32_t i = 0; i < sources[s].size(); ++i) {
        if (form == 2 ? sources[s][i][0].is_null() : rng.Chance(0.6)) {
          ids.push_back(i);
        }
      }
      if (form == 0 || (form == 1 && kinds[s] == Kind::kMixed)) {
        parts.push_back({encoded[s], sources[s]});
      } else if (form == 3) {
        Part part = GatherPart(sources[s], encoded[s], ids);
        part.column = ColumnData::Encode(part.cells, 0);
        parts.push_back(std::move(part));
      } else {
        parts.push_back(GatherPart(sources[s], encoded[s], ids));
      }
    }
    std::vector<const ColumnData*> pointers;
    std::vector<Row> all;
    for (const Part& part : parts) {
      pointers.push_back(&part.column);
      all.insert(all.end(), part.cells.begin(), part.cells.end());
    }
    const ColumnData got = ColumnData::Concat(pointers);
    const std::string context = StrCat("trial ", trial, ", ", k, " parts");
    ExpectSameCells(got, ColumnData::Encode(all, 0), context);
    if (got.tag() != ColumnTag::kString) continue;
    // The dictionary: the union of the dictionaries of the parts that
    // hold a string, by pointer when one of them holds all the others.
    std::vector<std::string> want_dict;
    for (const Part& part : parts) {
      if (part.column.tag() != ColumnTag::kString ||
          part.column.null_count() == part.column.size()) {
        continue;
      }
      const std::vector<std::string>& values = part.column.dict()->values();
      want_dict.insert(want_dict.end(), values.begin(), values.end());
    }
    std::sort(want_dict.begin(), want_dict.end());
    want_dict.erase(std::unique(want_dict.begin(), want_dict.end()),
                    want_dict.end());
    EXPECT_EQ(got.dict()->values(), want_dict) << context;
    for (const Part& part : parts) {
      if (part.column.tag() == ColumnTag::kString &&
          part.column.null_count() < part.column.size() &&
          part.column.dict()->values() == want_dict) {
        EXPECT_TRUE(std::any_of(pointers.begin(), pointers.end(),
                                [&](const ColumnData* c) {
                                  return c->dict() == got.dict();
                                }))
            << context << ": a part's dictionary holds every string";
        break;
      }
    }
  }
}

TEST(ColumnConcatTest, AllNullPartsTakeTheTypedPartsTag) {
  const ColumnData strings =
      ColumnData::Encode({{Value::String("b")}, {Value::Null()}}, 0);
  const ColumnData doubles = ColumnData::Encode(
      {{Value::Double(std::numeric_limits<double>::quiet_NaN())},
       {Value::Null()}},
      0);
  const ColumnData no_cell = ColumnData::Encode({{Value::Null()}}, 0);
  // All-NULL parts under the string and double tags.
  const ColumnData null_string = ColumnData::Gather(strings, {1});
  const ColumnData null_double = ColumnData::Gather(doubles, {1, 1});
  EXPECT_EQ(null_double.tag(), ColumnTag::kDouble);
  EXPECT_FALSE(null_double.has_nan());
  const ColumnData with_strings =
      ColumnData::Concat({&no_cell, &null_double, &strings, &null_string});
  EXPECT_EQ(with_strings.tag(), ColumnTag::kString);
  EXPECT_EQ(with_strings.dict(), strings.dict());
  EXPECT_EQ(with_strings.null_count(), 5u);
  EXPECT_EQ(with_strings.Get(3), Value::String("b"));
  const ColumnData nothing = ColumnData::Concat({&null_string, &null_double});
  EXPECT_EQ(nothing.tag(), ColumnTag::kInt);
  EXPECT_EQ(nothing.null_count(), 3u);
  EXPECT_FALSE(nothing.has_nan());
}

TEST(RelationAppendTest, ColumnarWhateverTheStoredLayout) {
  const Schema schema = Schema::FromNames({"k", "s"});
  std::vector<Row> stored_rows = {{Value::Int(1), Value::String("b")},
                                  {Value::Null(), Value::String("a")}};
  std::vector<Row> batch = {{Value::Int(3), Value::Null()}};
  Relation row_stored(schema, stored_rows);
  Relation columnar(schema, stored_rows);
  columnar.ToColumnar();
  for (const Relation* stored : {&row_stored, &columnar}) {
    Relation appended = AppendRows(*stored, batch);
    ASSERT_TRUE(appended.is_columnar());
    ASSERT_EQ(appended.size(), 3u);
    for (size_t c = 0; c < schema.size(); ++c) {
      ExpectEncodes(*appended.ReadColumn(c), Concat(stored_rows, batch), c,
                    StrCat("column ", c));
    }
  }
  const Relation narrow(Schema::FromNames({"k"}), {{Value::Int(1)}});
  EXPECT_THROW(
      { (void)Relation::Concat(schema, {&columnar, &narrow}); }, EngineError);
}

// --- TableStats::Extend -----------------------------------------------------

TEST(TableStatsExtendTest, RandomAppendsEqualCollect) {
  Cells cells(7);
  Rng& rng = cells.rng();
  // Period columns at 0 and 2, not trailing; the others draw one kind
  // each, fixed per trial, with an occasional batch of another kind.
  const Schema schema = Schema::FromNames({"ts", "k", "te", "x", "y"});
  for (int trial = 0; trial < 300; ++trial) {
    Kind kinds[5] = {Kind::kInt, kKinds[rng.Uniform(6)], Kind::kInt,
                     kKinds[rng.Uniform(6)], kKinds[rng.Uniform(6)]};
    auto draw_rows = [&](size_t n, bool drift) {
      std::vector<Row> rows;
      for (size_t i = 0; i < n; ++i) {
        Row row;
        for (size_t c = 0; c < 5; ++c) {
          const Kind kind = drift && rng.Chance(0.2) ? kKinds[rng.Uniform(6)]
                                                     : kinds[c];
          row.push_back(cells.Draw(kind, 0.1));
        }
        // Mostly well-formed periods; some empty, some far outside the
        // stored span, some NULL (skipped by the interval profile).
        if (!row[0].is_null() && rng.Chance(0.8)) {
          const int64_t b = rng.Range(-5, 40) * (rng.Chance(0.1) ? 100 : 1);
          row[0] = Value::Int(b);
          row[2] = Value::Int(b + rng.Range(-1, 300));
        }
        rows.push_back(std::move(row));
      }
      return rows;
    };
    const std::vector<Row> stored_rows = draw_rows(rng.Uniform(80), false);
    const std::vector<Row> batch =
        draw_rows(rng.Chance(0.1) ? 0 : rng.Uniform(20) + 1, rng.Chance(0.3));
    auto old_rel = std::make_shared<Relation>(schema, stored_rows);
    old_rel->ToColumnar();
    const int begin = rng.Chance(0.8) ? 0 : -1;
    const int end = begin < 0 ? -1 : 2;
    std::shared_ptr<const TableStats> old_stats =
        TableStats::Collect(old_rel, begin, end);
    const std::string old_rendering = old_stats->ToString();
    auto next = std::make_shared<const Relation>(AppendRows(*old_rel, batch));
    std::shared_ptr<const TableStats> extended =
        TableStats::Extend(*old_stats, next);
    EXPECT_TRUE(extended->BuiltFor(next.get()));
    EXPECT_EQ(extended->ToString(),
              TableStats::Collect(next, begin, end)->ToString())
        << "trial " << trial;
    EXPECT_EQ(old_stats->ToString(), old_rendering) << "trial " << trial;
  }
}

TEST(TableStatsExtendTest, DistinctCountsFollowKeyEquality) {
  // Ints inside and outside the stored range, a value the stored rows
  // hold twice, -0.0 equal to 0.0, and NaN (a recount).
  const Schema schema = Schema::FromNames({"i", "d", "n"});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto stored = std::make_shared<Relation>(
      schema,
      std::vector<Row>{
          {Value::Int(5), Value::Double(0.0), Value::Double(nan)},
          {Value::Int(9), Value::Double(1.0), Value::Double(1.0)},
          {Value::Int(5), Value::Null(), Value::Null()}});
  stored->ToColumnar();
  auto stats = TableStats::Collect(stored);
  auto next = std::make_shared<const Relation>(AppendRows(
      *stored,
      {{Value::Int(5), Value::Double(-0.0), Value::Double(nan)},
       {Value::Int(7), Value::Double(2.0), Value::Double(1.0)},
       {Value::Int(100), Value::Double(-0.0), Value::Null()}}));
  auto extended = TableStats::Extend(*stats, next);
  EXPECT_EQ(extended->ToString(), TableStats::Collect(next)->ToString());
  EXPECT_EQ(extended->column(0).distinct, 4);  // 5, 9, 7, 100
  EXPECT_EQ(extended->column(1).distinct, 3);  // 0.0 == -0.0, 1.0, 2.0
  EXPECT_EQ(extended->column(0).min_int, 5);
  EXPECT_EQ(extended->column(0).max_int, 100);
}

TEST(TableStatsExtendTest, RejectsAShorterRelation) {
  auto rel = std::make_shared<Relation>(
      Schema::FromNames({"a"}),
      std::vector<Row>{{Value::Int(1)}, {Value::Int(2)}});
  auto stats = TableStats::Collect(rel);
  auto shorter = std::make_shared<const Relation>(
      Schema::FromNames({"a"}), std::vector<Row>{{Value::Int(1)}});
  EXPECT_THROW({ (void)TableStats::Extend(*stats, shorter); }, EngineError);
}

// --- TemporalDB::InsertRows -------------------------------------------------

/// One table under random appends, with the rows it should hold.
struct Mirror {
  std::string name;
  int begin = -1;
  int end = -1;
  std::vector<Row> rows;
};

/// Every stored column of `name` encodes `mirror.rows`, and the
/// published statistics render like a fresh collection.
void ExpectPublished(const TemporalDB& db, const Mirror& mirror,
                     const std::string& context) {
  std::shared_ptr<const Relation> rel = db.catalog().GetShared(mirror.name);
  ASSERT_TRUE(rel->is_columnar()) << context;
  ASSERT_EQ(rel->size(), mirror.rows.size()) << context;
  for (size_t c = 0; c < rel->schema().size(); ++c) {
    ExpectEncodes(*rel->ReadColumn(c), mirror.rows, c,
                  StrCat(context, " column ", c));
  }
  std::shared_ptr<const TableStats> stats = db.catalog().GetStats(mirror.name);
  ASSERT_NE(stats, nullptr) << context;
  EXPECT_TRUE(stats->BuiltFor(rel.get())) << context;
  EXPECT_EQ(stats->ToString(),
            TableStats::Collect(rel, mirror.begin, mirror.end)->ToString())
      << context;
}

TEST(AppendEquivalenceTest, RandomBatchesThroughInsertRows) {
  TemporalDB db(TimeDomain{0, 100});
  // A period table whose period columns are not trailing, and a plain
  // one; both start empty.
  ASSERT_TRUE(db.CreatePeriodTable("p", {"ts", "k", "te", "d", "s", "b", "n"},
                                   "ts", "te")
                  .ok());
  ASSERT_TRUE(db.CreateTable("t", {"i", "m", "s"}).ok());
  Mirror tables[2] = {{"p", 0, 2, {}}, {"t", -1, -1, {}}};
  Cells cells(15);
  Rng& rng = cells.rng();
  for (int step = 0; step < 200; ++step) {
    Mirror& mirror = tables[rng.Uniform(2)];
    const size_t size = rng.Chance(0.1) ? 0 : rng.Uniform(12) + 1;
    std::vector<Row> batch;
    for (size_t r = 0; r < size; ++r) {
      Row row;
      if (mirror.name == "p") {
        // ts, k, te: int periods, some empty.  d: doubles that start
        // taking ints (kMixed) late; n: NULL until strings arrive
        // (kString); s, b: strings and bools throughout.
        const int64_t ts = rng.Range(0, 95);
        row = {Value::Int(ts), cells.Draw(Kind::kInt, 0.1),
               Value::Int(std::min<int64_t>(ts + rng.Range(-2, 20), 100)),
               cells.Draw(step > 150 && rng.Chance(0.2) ? Kind::kInt
                                                         : Kind::kDouble,
                          0.1),
               cells.Draw(Kind::kString, 0.1), cells.Draw(Kind::kBool, 0.2),
               cells.Draw(step < 60 ? Kind::kNull : Kind::kString, 0.3)};
      } else {
        // i: ints that start taking strings late; m: mixed; s: strings.
        row = {cells.Draw(step > 120 && rng.Chance(0.2) ? Kind::kString
                                                         : Kind::kInt,
                          0.1),
               cells.Draw(Kind::kMixed, 0.1), cells.Draw(Kind::kString, 0.0)};
      }
      batch.push_back(std::move(row));
    }
    // Versions pinned before the append.
    std::shared_ptr<const Relation> old_rel =
        db.catalog().GetShared(mirror.name);
    std::shared_ptr<const TableStats> old_stats =
        db.catalog().GetStats(mirror.name);
    const std::string old_rendering = old_stats->ToString();
    const std::vector<Row> old_rows = mirror.rows;

    mirror.rows.insert(mirror.rows.end(), batch.begin(), batch.end());
    ASSERT_TRUE(db.InsertRows(mirror.name, std::move(batch)).ok());
    const std::string context = StrCat("step ", step, " table ", mirror.name);
    if (size == 0) {
      EXPECT_EQ(db.catalog().GetShared(mirror.name), old_rel) << context;
    }
    ExpectPublished(db, mirror, context);

    // The pinned versions read as before.
    ASSERT_EQ(old_rel->size(), old_rows.size()) << context;
    for (size_t c = 0; c < old_rel->schema().size(); ++c) {
      ExpectEncodes(*old_rel->ReadColumn(c), old_rows, c,
                    StrCat(context, " old column ", c));
    }
    EXPECT_TRUE(old_stats->BuiltFor(old_rel.get())) << context;
    EXPECT_EQ(old_stats->ToString(), old_rendering) << context;

    // Point reads warm the timeline index, so later appends also take
    // the differential-index path; they must match the scan.
    if (mirror.name == "p" && rng.Chance(0.2)) {
      const TimePoint t = rng.Range(0, 99);
      Result<Relation> sliced = db.Timeslice("p", t);
      ASSERT_TRUE(sliced.ok()) << context;
      Relation scanned =
          TimesliceEncodedAt(*db.catalog().GetShared("p"), t, 0, 2);
      ASSERT_EQ(sliced->size(), scanned.size()) << context << " t=" << t;
      for (size_t i = 0; i < scanned.size(); ++i) {
        for (size_t c = 0; c < scanned.schema().size(); ++c) {
          EXPECT_TRUE(SameCell(sliced->rows()[i][c], scanned.rows()[i][c]))
              << context << " t=" << t << " row " << i;
        }
      }
    }
  }
  EXPECT_GT(db.index_maintenance_stats().delta_publishes, 0);
}

TEST(AppendEquivalenceTest, KnownStringsKeepTheStoredDictionary) {
  TemporalDB db(TimeDomain{0, 10});
  ASSERT_TRUE(db.CreateTable("t", {"s"}).ok());
  ASSERT_TRUE(
      db.InsertRows("t", {{Value::String("a")}, {Value::String("b")}}).ok());
  std::shared_ptr<const Relation> before = db.catalog().GetShared("t");
  ASSERT_TRUE(db.InsertRows("t", {{Value::String("b")}, {Value::Null()}}).ok());
  std::shared_ptr<const Relation> after = db.catalog().GetShared("t");
  EXPECT_EQ(after->ReadColumn(0)->dict(), before->ReadColumn(0)->dict());
  ASSERT_TRUE(db.InsertRows("t", {{Value::String("0")}}).ok());
  EXPECT_NE(db.catalog().GetShared("t")->ReadColumn(0)->dict(),
            after->ReadColumn(0)->dict());
  EXPECT_EQ(after->ReadColumn(0)->dict()->values(),
            (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace periodk
