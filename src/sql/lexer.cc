#include "sql/lexer.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/str_util.h"

namespace periodk {
namespace sql {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comments.
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    Token token;
    token.offset = i;
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(sql[i])) ++i;
      token.type = TokenType::kIdent;
      token.text = sql.substr(start, i - start);
      tokens.push_back(std::move(token));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i < n && sql[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(sql[i + 1]))) {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      std::string text = sql.substr(start, i - start);
      // Literals are unsigned here (a leading '-' is the unary operator),
      // so 9223372036854775808 is out of range even as -9223372036854775808.
      bool out_of_range = false;
      if (is_float) {
        token.type = TokenType::kFloat;
        token.float_value = std::strtod(text.c_str(), nullptr);
        // Overflow only: a fraction too small for a double rounds to it.
        out_of_range = std::isinf(token.float_value);
      } else {
        token.type = TokenType::kInt;
        errno = 0;
        token.int_value = std::strtoll(text.c_str(), nullptr, 10);
        out_of_range = errno == ERANGE;
      }
      if (out_of_range) {
        return Status::ParseError(StrCat(
            "numeric literal out of range at offset ", token.offset));
      }
      token.text = std::move(text);
      tokens.push_back(std::move(token));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string contents;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {  // escaped quote
            contents += '\'';
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        contents += sql[i++];
      }
      if (!closed) {
        return Status::ParseError(
            StrCat("unterminated string literal at offset ", token.offset));
      }
      token.type = TokenType::kString;
      token.text = std::move(contents);
      tokens.push_back(std::move(token));
      continue;
    }
    // Multi-character operators first.
    static const char* kTwoChar[] = {"<=", ">=", "<>", "!="};
    bool matched = false;
    for (const char* op : kTwoChar) {
      if (c == op[0] && i + 1 < n && sql[i + 1] == op[1]) {
        token.type = TokenType::kSymbol;
        token.text = op;
        tokens.push_back(std::move(token));
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    static const std::string kSingles = "(),.*=<>+-/%";
    if (kSingles.find(c) != std::string::npos) {
      token.type = TokenType::kSymbol;
      token.text = std::string(1, c);
      tokens.push_back(std::move(token));
      ++i;
      continue;
    }
    return Status::ParseError(
        StrCat("unexpected character '", std::string(1, c), "' at offset ",
               i));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.offset = n;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace sql
}  // namespace periodk
