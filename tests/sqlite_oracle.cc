#include "sqlite_oracle.h"

#include <sqlite3.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/str_util.h"
#include "common/value.h"
#include "engine/column.h"

namespace periodk {

namespace {

std::string QuoteIdent(const std::string& name) {
  std::string out = "\"";
  for (char c : name) {
    out += c;
    if (c == '"') out += '"';
  }
  return out + "\"";
}

std::string SqlLiteral(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return v.AsBool() ? "1" : "0";
    case ValueType::kInt:
      return std::to_string(v.AsInt());
    case ValueType::kDouble: {
      double d = v.AsDouble();
      if (std::isnan(d)) throw EngineError("cannot spell NaN in SQL");
      if (std::isinf(d)) return d > 0 ? "9e999" : "-9e999";
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      std::string s = buf;
      if (s.find_first_of(".eE") == std::string::npos) s += ".0";
      return s;
    }
    case ValueType::kString: {
      std::string out = "'";
      for (char c : v.AsString()) {
        out += c;
        if (c == '\'') out += '\'';
      }
      return out + "'";
    }
  }
  throw EngineError("unknown value type");
}

std::string ColumnDefs(size_t arity) {
  std::string out;
  for (size_t i = 0; i < arity; ++i) {
    if (i > 0) out += ", ";
    out += StrCat("c", i);
  }
  return out;
}

/// RAII prepared statement.
class Stmt {
 public:
  Stmt(sqlite3* db, const std::string& sql) {
    if (sqlite3_prepare_v2(db, sql.c_str(), -1, &stmt_, nullptr) !=
        SQLITE_OK) {
      throw EngineError(
          StrCat("sqlite prepare failed: ", sqlite3_errmsg(db), "\n  ", sql));
    }
  }
  ~Stmt() { sqlite3_finalize(stmt_); }
  sqlite3_stmt* get() { return stmt_; }

 private:
  sqlite3_stmt* stmt_ = nullptr;
};

void Exec(sqlite3* db, const std::string& sql) {
  char* err = nullptr;
  if (sqlite3_exec(db, sql.c_str(), nullptr, nullptr, &err) != SQLITE_OK) {
    std::string msg = err != nullptr ? err : "unknown error";
    sqlite3_free(err);
    throw EngineError(StrCat("sqlite exec failed: ", msg, "\n  ", sql));
  }
}

void BindValue(sqlite3* db, sqlite3_stmt* stmt, int index, const Value& v) {
  int rc = SQLITE_OK;
  switch (v.type()) {
    case ValueType::kNull:
      rc = sqlite3_bind_null(stmt, index);
      break;
    case ValueType::kBool:
      rc = sqlite3_bind_int64(stmt, index, v.AsBool() ? 1 : 0);
      break;
    case ValueType::kInt:
      rc = sqlite3_bind_int64(stmt, index, v.AsInt());
      break;
    case ValueType::kDouble:
      rc = sqlite3_bind_double(stmt, index, v.AsDouble());
      break;
    case ValueType::kString:
      rc = sqlite3_bind_text(stmt, index, v.AsString().c_str(), -1,
                             SQLITE_TRANSIENT);
      break;
  }
  if (rc != SQLITE_OK) {
    throw EngineError(StrCat("sqlite bind failed: ", sqlite3_errmsg(db)));
  }
}

/// Columnar bind: straight from the typed arrays / dictionary, no Value
/// round trip and no row-view materialization of the loaded relation.
void BindColumnCell(sqlite3* db, sqlite3_stmt* stmt, int index,
                    const ColumnData& col, size_t row) {
  int rc = SQLITE_OK;
  if (col.IsNull(row)) {
    rc = sqlite3_bind_null(stmt, index);
  } else {
    switch (col.tag()) {
      case ColumnTag::kInt:
        rc = sqlite3_bind_int64(stmt, index, col.ints()[row]);
        break;
      case ColumnTag::kDouble:
        rc = sqlite3_bind_double(stmt, index, col.doubles()[row]);
        break;
      case ColumnTag::kBool:
        rc = sqlite3_bind_int64(stmt, index, col.bools()[row] != 0 ? 1 : 0);
        break;
      case ColumnTag::kString: {
        // SQLITE_STATIC is safe: the dictionary outlives the statement.
        const std::string& s = col.dict()->At(col.codes()[row]);
        rc = sqlite3_bind_text(stmt, index, s.c_str(),
                               static_cast<int>(s.size()), SQLITE_STATIC);
        break;
      }
      case ColumnTag::kMixed:
        BindValue(db, stmt, index, col.mixed()[row]);
        return;
    }
  }
  if (rc != SQLITE_OK) {
    throw EngineError(StrCat("sqlite bind failed: ", sqlite3_errmsg(db)));
  }
}

Value NormalizeValue(const Value& v) {
  // The engine's booleans read back from SQL as integers.
  if (v.type() == ValueType::kBool) return Value::Int(v.AsBool() ? 1 : 0);
  return v;
}

Relation Normalized(const Relation& rel) {
  std::vector<Row> rows;
  rows.reserve(rel.size());
  for (const Row& row : rel.rows()) {
    Row r;
    r.reserve(row.size());
    for (const Value& v : row) r.push_back(NormalizeValue(v));
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  return Relation(rel.schema(), std::move(rows));
}

/// Equality for the diff: NULL matches only NULL; numerics compare
/// numerically, doubles with a tiny relative tolerance (SUM/AVG
/// accumulate in different orders on the two sides).
bool ValuesMatch(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  bool numeric_a =
      a.type() == ValueType::kInt || a.type() == ValueType::kDouble;
  bool numeric_b =
      b.type() == ValueType::kInt || b.type() == ValueType::kDouble;
  if (numeric_a != numeric_b) return false;
  if (a.type() == ValueType::kDouble || b.type() == ValueType::kDouble) {
    double x = a.NumericAsDouble();
    double y = b.NumericAsDouble();
    if (x == y) return true;
    double scale = std::max(std::fabs(x), std::fabs(y));
    return std::fabs(x - y) <= 1e-9 * scale;
  }
  return a.Compare(b) == 0;
}

}  // namespace

SqliteOracle::SqliteOracle() {
  if (sqlite3_open(":memory:", &db_) != SQLITE_OK) {
    std::string msg = db_ != nullptr ? sqlite3_errmsg(db_) : "out of memory";
    sqlite3_close(db_);
    db_ = nullptr;
    throw EngineError(StrCat("sqlite open failed: ", msg));
  }
  // The engine's LIKE is case-sensitive; SQLite's defaults to not.
  Exec(db_, "PRAGMA case_sensitive_like = ON;");
}

SqliteOracle::~SqliteOracle() { sqlite3_close(db_); }

void SqliteOracle::LoadTable(const std::string& name,
                             const Relation& relation) {
  size_t arity = relation.schema().size();
  if (arity == 0) throw EngineError("cannot load a zero-column table");
  Exec(db_, StrCat("DROP TABLE IF EXISTS ", QuoteIdent(name), ";"));
  Exec(db_, StrCat("CREATE TABLE ", QuoteIdent(name), "(", ColumnDefs(arity),
                   ");"));
  std::string placeholders;
  for (size_t i = 0; i < arity; ++i) {
    placeholders += i > 0 ? ", ?" : "?";
  }
  Stmt insert(db_, StrCat("INSERT INTO ", QuoteIdent(name), " VALUES (",
                          placeholders, ");"));
  Exec(db_, "BEGIN;");
  std::vector<TypedColumn> cols;
  for (size_t i = 0; i < arity; ++i) cols.push_back(relation.ReadColumn(i));
  for (size_t r = 0; r < relation.size(); ++r) {
    for (size_t i = 0; i < arity; ++i) {
      BindColumnCell(db_, insert.get(), static_cast<int>(i) + 1, *cols[i], r);
    }
    if (sqlite3_step(insert.get()) != SQLITE_DONE) {
      throw EngineError(StrCat("sqlite insert failed: ", sqlite3_errmsg(db_)));
    }
    sqlite3_reset(insert.get());
    sqlite3_clear_bindings(insert.get());
  }
  Exec(db_, "COMMIT;");
}

void SqliteOracle::LoadCatalog(const Catalog& catalog) {
  for (const std::string& name : catalog.TableNames()) {
    LoadTable(name, catalog.Get(name));
  }
}

void SqliteOracle::Execute(const std::string& sql) { Exec(db_, sql); }

Relation SqliteOracle::RunScript(const SqlScript& script, size_t arity) {
  for (const std::string& stage : script.setup) Exec(db_, stage);
  return Query(script.query, arity);
}

Relation SqliteOracle::Query(const std::string& sql, size_t arity) {
  Stmt stmt(db_, sql);
  size_t cols = static_cast<size_t>(sqlite3_column_count(stmt.get()));
  if (cols != arity) {
    throw EngineError(StrCat("oracle query returned ", cols,
                             " columns, expected ", arity, "\n  ", sql));
  }
  std::vector<std::string> names;
  for (size_t i = 0; i < arity; ++i) names.push_back(StrCat("c", i));
  Relation out{Schema::FromNames(names)};
  while (true) {
    int rc = sqlite3_step(stmt.get());
    if (rc == SQLITE_DONE) break;
    if (rc != SQLITE_ROW) {
      throw EngineError(StrCat("sqlite step failed: ", sqlite3_errmsg(db_),
                               "\n  ", sql));
    }
    Row row;
    row.reserve(arity);
    for (size_t i = 0; i < arity; ++i) {
      int c = static_cast<int>(i);
      switch (sqlite3_column_type(stmt.get(), c)) {
        case SQLITE_NULL:
          row.push_back(Value::Null());
          break;
        case SQLITE_INTEGER:
          row.push_back(Value::Int(sqlite3_column_int64(stmt.get(), c)));
          break;
        case SQLITE_FLOAT:
          row.push_back(Value::Double(sqlite3_column_double(stmt.get(), c)));
          break;
        case SQLITE_TEXT: {
          const unsigned char* text = sqlite3_column_text(stmt.get(), c);
          row.push_back(Value::String(
              text != nullptr ? reinterpret_cast<const char*>(text) : ""));
          break;
        }
        default:
          throw EngineError("oracle query returned a BLOB column");
      }
    }
    out.AddRow(std::move(row));
  }
  return out;
}

std::optional<std::string> DiffRelations(const Relation& engine,
                                         const Relation& oracle) {
  Relation a = Normalized(engine);
  Relation b = Normalized(oracle);
  std::string prefix;
  if (a.size() != b.size()) {
    prefix = StrCat("row count: engine ", a.size(), " vs oracle ", b.size(),
                    "\n");
  }
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const Row& ra = a.rows()[i];
    const Row& rb = b.rows()[i];
    bool match = ra.size() == rb.size();
    for (size_t c = 0; match && c < ra.size(); ++c) {
      match = ValuesMatch(ra[c], rb[c]);
    }
    if (!match) {
      return StrCat(prefix, "first divergence at sorted row ", i,
                    ":\n  engine: ", RowToString(ra),
                    "\n  oracle: ", RowToString(rb),
                    "\nengine result:\n", a.ToString(20),
                    "oracle result:\n", b.ToString(20));
    }
  }
  if (a.size() != b.size()) {
    const Relation& longer = a.size() > b.size() ? a : b;
    return StrCat(prefix, "extra ",
                  a.size() > b.size() ? "engine" : "oracle", " row: ",
                  RowToString(longer.rows()[n]), "\nengine result:\n",
                  a.ToString(20), "oracle result:\n", b.ToString(20));
  }
  return std::nullopt;
}

std::string BuildReproducerSql(const std::map<std::string, Relation>& tables,
                               const std::string& sql,
                               const std::string& header_comment) {
  std::string out;
  if (!header_comment.empty()) {
    size_t start = 0;
    while (start <= header_comment.size()) {
      size_t end = header_comment.find('\n', start);
      if (end == std::string::npos) end = header_comment.size();
      out += "-- " + header_comment.substr(start, end - start) + "\n";
      start = end + 1;
    }
  }
  out += "-- Replay with: sqlite3 :memory: < this_file.sql\n";
  for (const auto& [name, rel] : tables) {
    size_t arity = rel.schema().size();
    out += StrCat("DROP TABLE IF EXISTS ", QuoteIdent(name), ";\n");
    out += StrCat("CREATE TABLE ", QuoteIdent(name), "(", ColumnDefs(arity),
                  ");\n");
    for (const Row& row : rel.rows()) {
      out += StrCat("INSERT INTO ", QuoteIdent(name), " VALUES (");
      for (size_t i = 0; i < arity; ++i) {
        if (i > 0) out += ", ";
        out += SqlLiteral(row[i]);
      }
      out += ");\n";
    }
  }
  out += sql;
  out += ";\n";
  return out;
}

}  // namespace periodk
