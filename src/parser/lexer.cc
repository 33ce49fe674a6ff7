#include "parser/lexer.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

namespace diablo::parser {

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kInt: return "integer";
    case TokenKind::kDouble: return "double";
    case TokenKind::kString: return "string";
    case TokenKind::kVar: return "'var'";
    case TokenKind::kFor: return "'for'";
    case TokenKind::kIn: return "'in'";
    case TokenKind::kDo: return "'do'";
    case TokenKind::kWhile: return "'while'";
    case TokenKind::kIf: return "'if'";
    case TokenKind::kElse: return "'else'";
    case TokenKind::kTrue: return "'true'";
    case TokenKind::kFalse: return "'false'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kComma: return "','";
    case TokenKind::kSemi: return "';'";
    case TokenKind::kColon: return "':'";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kAssign: return "':='";
    case TokenKind::kPlusEq: return "'+='";
    case TokenKind::kMinusEq: return "'-='";
    case TokenKind::kStarEq: return "'*='";
    case TokenKind::kEq: return "'='";
    case TokenKind::kEqEq: return "'=='";
    case TokenKind::kNe: return "'!='";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kAndAnd: return "'&&'";
    case TokenKind::kOrOr: return "'||'";
    case TokenKind::kBang: return "'!'";
    case TokenKind::kEof: return "end of input";
  }
  return "?";
}

namespace {

const std::unordered_map<std::string, TokenKind>& Keywords() {
  static const auto* kKeywords = new std::unordered_map<std::string, TokenKind>{
      {"var", TokenKind::kVar},   {"for", TokenKind::kFor},
      {"in", TokenKind::kIn},     {"do", TokenKind::kDo},
      {"while", TokenKind::kWhile}, {"if", TokenKind::kIf},
      {"else", TokenKind::kElse}, {"true", TokenKind::kTrue},
      {"false", TokenKind::kFalse},
  };
  return *kKeywords;
}

}  // namespace

StatusOr<std::vector<Token>> Tokenize(const std::string& source) {
  std::vector<Token> tokens;
  SourceLocation loc;
  size_t i = 0;
  const size_t n = source.size();

  auto peek = [&](size_t k = 0) -> char {
    return i + k < n ? source[i + k] : '\0';
  };
  auto advance = [&]() {
    if (source[i] == '\n') {
      ++loc.line;
      loc.column = 1;
    } else {
      ++loc.column;
    }
    ++i;
  };
  auto push = [&](TokenKind kind, std::string text, SourceLocation at) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.loc = at;
    tokens.push_back(std::move(t));
  };

  while (i < n) {
    char c = peek();
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();
      continue;
    }
    // Comments: '#' or '//' to end of line.
    if (c == '#' || (c == '/' && peek(1) == '/')) {
      while (i < n && peek() != '\n') advance();
      continue;
    }
    SourceLocation at = loc;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string word;
      while (i < n && (std::isalnum(static_cast<unsigned char>(peek())) ||
                       peek() == '_' || peek() == '\'')) {
        word.push_back(peek());
        advance();
      }
      auto it = Keywords().find(word);
      push(it != Keywords().end() ? it->second : TokenKind::kIdent, word, at);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::string num;
      bool is_double = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(peek()))) {
        num.push_back(peek());
        advance();
      }
      if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
        is_double = true;
        num.push_back('.');
        advance();
        while (i < n && std::isdigit(static_cast<unsigned char>(peek()))) {
          num.push_back(peek());
          advance();
        }
      }
      if (peek() == 'e' || peek() == 'E') {
        size_t save = i;
        std::string exp;
        exp.push_back(peek());
        advance();
        if (peek() == '+' || peek() == '-') {
          exp.push_back(peek());
          advance();
        }
        if (std::isdigit(static_cast<unsigned char>(peek()))) {
          is_double = true;
          while (i < n && std::isdigit(static_cast<unsigned char>(peek()))) {
            exp.push_back(peek());
            advance();
          }
          num += exp;
        } else {
          // Not an exponent after all ("10elems" style); rewind.
          while (i > save) {
            --i;
            --loc.column;
          }
        }
      }
      Token t;
      t.loc = at;
      t.text = num;
      // A literal that overflows int64 or double is a parse error, not
      // a silently saturated value. (Double underflow to a subnormal or
      // zero is fine: that is the nearest representable value.)
      errno = 0;
      bool overflow = false;
      if (is_double) {
        t.kind = TokenKind::kDouble;
        t.double_value = std::strtod(num.c_str(), nullptr);
        overflow = std::isinf(t.double_value);
      } else {
        t.kind = TokenKind::kInt;
        t.int_value = std::strtoll(num.c_str(), nullptr, 10);
        overflow = errno == ERANGE;
      }
      if (overflow) {
        return Status::ParseError(StrCat("numeric literal ", num,
                                         " out of range at ",
                                         LocationString(at)));
      }
      tokens.push_back(std::move(t));
      continue;
    }
    if (c == '"') {
      advance();
      std::string text;
      while (i < n && peek() != '"') {
        if (peek() == '\\' && i + 1 < n) {
          advance();
          char esc = peek();
          switch (esc) {
            case 'n': text.push_back('\n'); break;
            case 't': text.push_back('\t'); break;
            case '\\': text.push_back('\\'); break;
            case '"': text.push_back('"'); break;
            default: text.push_back(esc); break;
          }
          advance();
          continue;
        }
        text.push_back(peek());
        advance();
      }
      if (i >= n) {
        return Status::ParseError(
            StrCat("unterminated string literal at ", LocationString(at)));
      }
      advance();  // closing quote
      Token t;
      t.kind = TokenKind::kString;
      t.text = std::move(text);
      t.loc = at;
      tokens.push_back(std::move(t));
      continue;
    }
    auto two = [&](char a, char b) { return c == a && peek(1) == b; };
    if (two(':', '=')) { advance(); advance(); push(TokenKind::kAssign, ":=", at); continue; }
    if (two('+', '=')) { advance(); advance(); push(TokenKind::kPlusEq, "+=", at); continue; }
    if (two('-', '=')) { advance(); advance(); push(TokenKind::kMinusEq, "-=", at); continue; }
    if (two('*', '=')) { advance(); advance(); push(TokenKind::kStarEq, "*=", at); continue; }
    if (two('=', '=')) { advance(); advance(); push(TokenKind::kEqEq, "==", at); continue; }
    if (two('!', '=')) { advance(); advance(); push(TokenKind::kNe, "!=", at); continue; }
    if (two('<', '=')) { advance(); advance(); push(TokenKind::kLe, "<=", at); continue; }
    if (two('>', '=')) { advance(); advance(); push(TokenKind::kGe, ">=", at); continue; }
    if (two('&', '&')) { advance(); advance(); push(TokenKind::kAndAnd, "&&", at); continue; }
    if (two('|', '|')) { advance(); advance(); push(TokenKind::kOrOr, "||", at); continue; }
    switch (c) {
      case '(': advance(); push(TokenKind::kLParen, "(", at); continue;
      case ')': advance(); push(TokenKind::kRParen, ")", at); continue;
      case '[': advance(); push(TokenKind::kLBracket, "[", at); continue;
      case ']': advance(); push(TokenKind::kRBracket, "]", at); continue;
      case '{': advance(); push(TokenKind::kLBrace, "{", at); continue;
      case '}': advance(); push(TokenKind::kRBrace, "}", at); continue;
      case ',': advance(); push(TokenKind::kComma, ",", at); continue;
      case ';': advance(); push(TokenKind::kSemi, ";", at); continue;
      case ':': advance(); push(TokenKind::kColon, ":", at); continue;
      case '.': advance(); push(TokenKind::kDot, ".", at); continue;
      case '=': advance(); push(TokenKind::kEq, "=", at); continue;
      case '<': advance(); push(TokenKind::kLt, "<", at); continue;
      case '>': advance(); push(TokenKind::kGt, ">", at); continue;
      case '+': advance(); push(TokenKind::kPlus, "+", at); continue;
      case '-': advance(); push(TokenKind::kMinus, "-", at); continue;
      case '*': advance(); push(TokenKind::kStar, "*", at); continue;
      case '/': advance(); push(TokenKind::kSlash, "/", at); continue;
      case '%': advance(); push(TokenKind::kPercent, "%", at); continue;
      case '!': advance(); push(TokenKind::kBang, "!", at); continue;
      default:
        return Status::ParseError(
            StrCat("unexpected character '", std::string(1, c), "' at ",
                   LocationString(at)));
    }
  }
  Token eof;
  eof.kind = TokenKind::kEof;
  eof.loc = loc;
  tokens.push_back(std::move(eof));
  return tokens;
}

}  // namespace diablo::parser
