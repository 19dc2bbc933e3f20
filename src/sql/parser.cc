#include "sql/parser.h"

#include <algorithm>
#include <set>

#include "common/str_util.h"
#include "sql/lexer.h"

namespace periodk {
namespace sql {

namespace {

// Words that terminate an implicit alias position.
const std::set<std::string>& ReservedWords() {
  static const std::set<std::string> kReserved = {
      "select", "from",  "where",  "group",  "having", "order",  "by",
      "union",  "except", "all",   "join",   "inner",  "on",     "as",
      "and",    "or",     "not",   "in",     "between", "like",  "is",
      "null",   "case",   "when",  "then",   "else",   "end",    "distinct",
      "period", "seq",    "vt",    "asc",    "desc",   "true",   "false"};
  return kReserved;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    try {
      Statement stmt;
      if (MatchKeyword("seq")) {
        ExpectKeyword("vt");
        if (MatchKeyword("as")) {
          ExpectKeyword("of");
          bool negative = MatchSymbol("-");
          if (Peek().type != TokenType::kInt) {
            throw ParseFailure("AS OF expects an integer time point",
                               Peek().offset);
          }
          int64_t t = Advance().int_value;
          stmt.as_of = negative ? -t : t;
        }
        ExpectSymbol("(");
        stmt.snapshot = true;
        stmt.query = ParseQuery();
        ExpectSymbol(")");
      } else {
        stmt.query = ParseQuery();
      }
      if (MatchKeyword("order")) {
        ExpectKeyword("by");
        stmt.order_by = ParseOrderItems();
      }
      if (Peek().type != TokenType::kEnd) {
        throw ParseFailure(StrCat("unexpected trailing input: '",
                                  Peek().text, "'"),
                           Peek().offset);
      }
      return stmt;
    } catch (const ParseFailure& failure) {
      return Status::ParseError(
          StrCat(failure.message, " (at offset ", failure.offset, ")"));
    }
  }

 private:
  struct ParseFailure {
    ParseFailure(std::string m, size_t o) : message(std::move(m)), offset(o) {}
    std::string message;
    size_t offset;
  };

  /// Holds one nesting level while a nested construct parses.
  class Nested {
   public:
    explicit Nested(Parser* parser) : parser_(parser) {
      parser_->CheckDepth(++parser_->depth_);
    }
    ~Nested() { --parser_->depth_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;

   private:
    Parser* parser_;
  };

  void CheckDepth(int depth) const {
    if (depth > kMaxNestingDepth) {
      throw ParseFailure(StrCat("statement nests deeper than ",
                                kMaxNestingDepth, " levels"),
                         Peek().offset);
    }
  }

  /// Sets an interior node's height from its children and bounds the
  /// levels open around it plus the height of the tree built below it.
  SqlExprPtr Sealed(SqlExprPtr node) {
    for (const SqlExprPtr& arg : node->args) {
      node->height = std::max(node->height, arg->height + 1);
    }
    CheckDepth(depth_ + node->height);
    return node;
  }

  std::shared_ptr<SqlQuery> Sealed(std::shared_ptr<SqlQuery> query) {
    int tallest = 0;
    if (query->kind != SqlQuery::Kind::kSelect) {
      tallest = std::max(query->left->height, query->right->height);
    } else {
      const SelectQuery& select = *query->select;
      auto visit = [&tallest](const SqlExprPtr& e) {
        if (e != nullptr) tallest = std::max(tallest, e->height);
      };
      for (const SelectItem& item : select.items) visit(item.expr);
      // FROM binds to a left-deep join over its entries: a conservative
      // entry depth is the join count plus the entry's own height.
      const int joins = static_cast<int>(select.from.size()) - 1;
      for (const TableRef& ref : select.from) {
        tallest = std::max(tallest, joins + (ref.subquery != nullptr
                                                 ? ref.subquery->height
                                                 : 1));
      }
      for (const SqlExprPtr& e : select.join_conditions) visit(e);
      visit(select.where);
      for (const SqlExprPtr& e : select.group_by) visit(e);
      visit(select.having);
    }
    query->height = tallest + 1;
    CheckDepth(depth_ + query->height);
    return query;
  }

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  const Token& Advance() { return tokens_[pos_++]; }

  bool PeekKeyword(const std::string& word, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kIdent && EqualsIgnoreCase(t.text, word);
  }

  bool MatchKeyword(const std::string& word) {
    if (!PeekKeyword(word)) return false;
    ++pos_;
    return true;
  }

  void ExpectKeyword(const std::string& word) {
    if (!MatchKeyword(word)) {
      throw ParseFailure(StrCat("expected '", word, "', found '",
                                Peek().text, "'"),
                         Peek().offset);
    }
  }

  bool PeekSymbol(const std::string& symbol, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kSymbol && t.text == symbol;
  }

  bool MatchSymbol(const std::string& symbol) {
    if (!PeekSymbol(symbol)) return false;
    ++pos_;
    return true;
  }

  void ExpectSymbol(const std::string& symbol) {
    if (!MatchSymbol(symbol)) {
      throw ParseFailure(StrCat("expected '", symbol, "', found '",
                                Peek().text.empty() ? "<end>" : Peek().text,
                                "'"),
                         Peek().offset);
    }
  }

  std::string ExpectIdent(const char* what) {
    if (Peek().type != TokenType::kIdent) {
      throw ParseFailure(StrCat("expected ", what, ", found '", Peek().text,
                                "'"),
                         Peek().offset);
    }
    return Advance().text;
  }

  // --- Query structure. ----------------------------------------------------

  std::shared_ptr<SqlQuery> ParseQuery() {
    Nested nested(this);
    std::shared_ptr<SqlQuery> query = ParseSelectBlock();
    while (PeekKeyword("union") || PeekKeyword("except")) {
      bool is_union = MatchKeyword("union");
      if (!is_union) ExpectKeyword("except");
      ExpectKeyword("all");  // only ALL (bag) variants are supported
      auto parent = std::make_shared<SqlQuery>();
      parent->kind = is_union ? SqlQuery::Kind::kUnionAll
                              : SqlQuery::Kind::kExceptAll;
      parent->left = query;
      parent->right = ParseSelectBlock();
      query = Sealed(std::move(parent));
    }
    return query;
  }

  std::shared_ptr<SqlQuery> ParseSelectBlock() {
    auto block = std::make_shared<SqlQuery>();
    block->kind = SqlQuery::Kind::kSelect;
    block->select = ParseSelect();
    return Sealed(std::move(block));
  }

  std::shared_ptr<SelectQuery> ParseSelect() {
    ExpectKeyword("select");
    auto select = std::make_shared<SelectQuery>();
    select->distinct = MatchKeyword("distinct");
    select->items.push_back(ParseSelectItem());
    while (MatchSymbol(",")) select->items.push_back(ParseSelectItem());
    ExpectKeyword("from");
    ParseFromList(select.get());
    if (MatchKeyword("where")) select->where = ParseExpr();
    if (MatchKeyword("group")) {
      ExpectKeyword("by");
      select->group_by.push_back(ParseExpr());
      while (MatchSymbol(",")) select->group_by.push_back(ParseExpr());
    }
    if (MatchKeyword("having")) select->having = ParseExpr();
    return select;
  }

  SelectItem ParseSelectItem() {
    SelectItem item;
    if (PeekSymbol("*")) {
      Advance();
      item.star = true;
      return item;
    }
    // "alias.*"
    if (Peek().type == TokenType::kIdent && PeekSymbol(".", 1) &&
        PeekSymbol("*", 2)) {
      item.star = true;
      item.star_qualifier = Advance().text;
      Advance();
      Advance();
      return item;
    }
    item.expr = ParseExpr();
    if (MatchKeyword("as")) {
      item.alias = ExpectIdent("alias");
    } else if (Peek().type == TokenType::kIdent &&
               ReservedWords().count(ToLower(Peek().text)) == 0) {
      item.alias = Advance().text;
    }
    return item;
  }

  void ParseFromList(SelectQuery* select) {
    select->from.push_back(ParseTableRef());
    while (true) {
      if (MatchSymbol(",")) {
        select->from.push_back(ParseTableRef());
        continue;
      }
      if (PeekKeyword("inner") || PeekKeyword("join")) {
        MatchKeyword("inner");
        ExpectKeyword("join");
        select->from.push_back(ParseTableRef());
        ExpectKeyword("on");
        select->join_conditions.push_back(ParseExpr());
        continue;
      }
      break;
    }
  }

  TableRef ParseTableRef() {
    TableRef ref;
    if (MatchSymbol("(")) {
      ref.kind = TableRef::Kind::kSubquery;
      ref.subquery = ParseQuery();
      ExpectSymbol(")");
      MatchKeyword("as");
      ref.alias = ExpectIdent("subquery alias");
      return ref;
    }
    ref.kind = TableRef::Kind::kTable;
    ref.table = ExpectIdent("table name");
    ref.alias = ref.table;
    if (MatchKeyword("period")) {
      ExpectSymbol("(");
      ref.period_begin = ExpectIdent("period begin column");
      ExpectSymbol(",");
      ref.period_end = ExpectIdent("period end column");
      ExpectSymbol(")");
    }
    if (MatchKeyword("as")) {
      ref.alias = ExpectIdent("alias");
    } else if (Peek().type == TokenType::kIdent &&
               ReservedWords().count(ToLower(Peek().text)) == 0) {
      ref.alias = Advance().text;
    }
    return ref;
  }

  std::vector<OrderItem> ParseOrderItems() {
    std::vector<OrderItem> items;
    do {
      OrderItem item;
      item.expr = ParseExpr();
      if (MatchKeyword("desc")) {
        item.ascending = false;
      } else {
        MatchKeyword("asc");
      }
      items.push_back(std::move(item));
    } while (MatchSymbol(","));
    return items;
  }

  // --- Expressions (precedence climbing). -----------------------------------

  SqlExprPtr ParseExpr() {
    Nested nested(this);
    return ParseOr();
  }

  SqlExprPtr ParseOr() {
    SqlExprPtr e = ParseAnd();
    while (MatchKeyword("or")) e = Sealed(MakeBinary("or", e, ParseAnd()));
    return e;
  }

  SqlExprPtr ParseAnd() {
    SqlExprPtr e = ParseNot();
    while (MatchKeyword("and")) e = Sealed(MakeBinary("and", e, ParseNot()));
    return e;
  }

  SqlExprPtr ParseNot() {
    if (!MatchKeyword("not")) return ParsePredicate();
    Nested nested(this);
    return Sealed(MakeUnary("not", ParseNot()));
  }

  SqlExprPtr ParsePredicate() {
    SqlExprPtr e = ParseAdditive();
    // Comparison operators.
    static const char* kCompare[] = {"=", "<>", "!=", "<=", ">=", "<", ">"};
    for (const char* op : kCompare) {
      if (PeekSymbol(op)) {
        Advance();
        return Sealed(MakeBinary(op == std::string("!=") ? "<>" : op, e,
                                 ParseAdditive()));
      }
    }
    bool negated = false;
    if (PeekKeyword("not") &&
        (PeekKeyword("between", 1) || PeekKeyword("in", 1) ||
         PeekKeyword("like", 1))) {
      Advance();
      negated = true;
    }
    if (MatchKeyword("between")) {
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExprKind::kBetween;
      node->negated = negated;
      node->args.push_back(e);
      node->args.push_back(ParseAdditive());
      ExpectKeyword("and");
      node->args.push_back(ParseAdditive());
      return Sealed(std::move(node));
    }
    if (MatchKeyword("in")) {
      ExpectSymbol("(");
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExprKind::kIn;
      node->negated = negated;
      node->args.push_back(e);
      node->args.push_back(ParseExpr());
      while (MatchSymbol(",")) node->args.push_back(ParseExpr());
      ExpectSymbol(")");
      return Sealed(std::move(node));
    }
    if (MatchKeyword("like")) {
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExprKind::kLike;
      node->negated = negated;
      node->args.push_back(e);
      node->args.push_back(ParseAdditive());
      return Sealed(std::move(node));
    }
    if (MatchKeyword("is")) {
      auto node = std::make_shared<SqlExpr>();
      node->kind = SqlExprKind::kIsNull;
      node->negated = MatchKeyword("not");
      ExpectKeyword("null");
      node->args.push_back(e);
      return Sealed(std::move(node));
    }
    return e;
  }

  SqlExprPtr ParseAdditive() {
    SqlExprPtr e = ParseMultiplicative();
    while (PeekSymbol("+") || PeekSymbol("-")) {
      std::string op = Advance().text;
      e = Sealed(MakeBinary(op, e, ParseMultiplicative()));
    }
    return e;
  }

  SqlExprPtr ParseMultiplicative() {
    SqlExprPtr e = ParseUnary();
    while (PeekSymbol("*") || PeekSymbol("/") || PeekSymbol("%")) {
      std::string op = Advance().text;
      e = Sealed(MakeBinary(op, e, ParseUnary()));
    }
    return e;
  }

  SqlExprPtr ParseUnary() {
    if (!MatchSymbol("-")) return ParsePrimary();
    Nested nested(this);
    return Sealed(MakeUnary("-", ParseUnary()));
  }

  SqlExprPtr ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInt:
        Advance();
        return MakeSqlLiteral(Value::Int(t.int_value));
      case TokenType::kFloat:
        Advance();
        return MakeSqlLiteral(Value::Double(t.float_value));
      case TokenType::kString:
        Advance();
        return MakeSqlLiteral(Value::String(t.text));
      case TokenType::kSymbol:
        if (MatchSymbol("(")) {
          SqlExprPtr e = ParseExpr();
          ExpectSymbol(")");
          return e;
        }
        break;
      case TokenType::kIdent: {
        if (MatchKeyword("null")) return MakeSqlLiteral(Value::Null());
        if (MatchKeyword("true")) return MakeSqlLiteral(Value::Bool(true));
        if (MatchKeyword("false")) return MakeSqlLiteral(Value::Bool(false));
        if (MatchKeyword("case")) return ParseCase();
        // Function call: ident '('.
        if (PeekSymbol("(", 1)) {
          std::string name = Advance().text;
          Advance();  // '('
          std::vector<SqlExprPtr> args;
          if (PeekSymbol("*")) {
            Advance();
            auto star = std::make_shared<SqlExpr>();
            star->kind = SqlExprKind::kStar;
            args.push_back(std::move(star));
          } else if (!PeekSymbol(")")) {
            args.push_back(ParseExpr());
            while (MatchSymbol(",")) args.push_back(ParseExpr());
          }
          ExpectSymbol(")");
          return Sealed(MakeFuncCall(name, std::move(args)));
        }
        // Column reference: ident or ident.ident.
        std::string first = Advance().text;
        if (MatchSymbol(".")) {
          std::string second = ExpectIdent("column name");
          return MakeColumnRef(first, second);
        }
        return MakeColumnRef("", first);
      }
      default:
        break;
    }
    throw ParseFailure(StrCat("unexpected token '",
                              t.text.empty() ? "<end>" : t.text, "'"),
                       t.offset);
  }

  SqlExprPtr ParseCase() {
    auto node = std::make_shared<SqlExpr>();
    node->kind = SqlExprKind::kCase;
    while (MatchKeyword("when")) {
      node->args.push_back(ParseExpr());
      ExpectKeyword("then");
      node->args.push_back(ParseExpr());
    }
    if (node->args.empty()) {
      throw ParseFailure("CASE requires at least one WHEN branch",
                         Peek().offset);
    }
    if (MatchKeyword("else")) {
      node->has_else = true;
      node->args.push_back(ParseExpr());
    }
    ExpectKeyword("end");
    return Sealed(std::move(node));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // levels open around the construct being parsed
};

}  // namespace

Result<Statement> Parse(const std::string& sql) {
  Result<std::vector<Token>> tokens = Tokenize(sql);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens.value()));
  return parser.ParseStatement();
}

}  // namespace sql
}  // namespace periodk
