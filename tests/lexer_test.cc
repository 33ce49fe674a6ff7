// Unit tests for the loop-language lexer.

#include "parser/lexer.h"

#include <gtest/gtest.h>

namespace diablo::parser {
namespace {

std::vector<TokenKind> Kinds(const std::string& src) {
  auto tokens = Tokenize(src);
  EXPECT_TRUE(tokens.ok()) << tokens.status().ToString();
  std::vector<TokenKind> kinds;
  if (tokens.ok()) {
    for (const Token& t : *tokens) kinds.push_back(t.kind);
  }
  return kinds;
}

TEST(Lexer, KeywordsAndIdentifiers) {
  auto kinds = Kinds("var for in do while if else true false foo");
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kVar, TokenKind::kFor, TokenKind::kIn,
                       TokenKind::kDo, TokenKind::kWhile, TokenKind::kIf,
                       TokenKind::kElse, TokenKind::kTrue, TokenKind::kFalse,
                       TokenKind::kIdent, TokenKind::kEof}));
}

TEST(Lexer, PrimedIdentifiers) {
  // The paper writes P' and Q' for previous-iteration matrices.
  auto tokens = Tokenize("P' Q'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "P'");
  EXPECT_EQ((*tokens)[1].text, "Q'");
}

TEST(Lexer, Numbers) {
  auto tokens = Tokenize("42 3.5 1e3 2.5e-2 7");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kInt);
  EXPECT_EQ((*tokens)[0].int_value, 42);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kDouble);
  EXPECT_DOUBLE_EQ((*tokens)[1].double_value, 3.5);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kDouble);
  EXPECT_DOUBLE_EQ((*tokens)[2].double_value, 1000);
  EXPECT_DOUBLE_EQ((*tokens)[3].double_value, 0.025);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kInt);
}

TEST(Lexer, Strings) {
  auto tokens = Tokenize(R"("hello" "a\"b" "x\ny")");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "hello");
  EXPECT_EQ((*tokens)[1].text, "a\"b");
  EXPECT_EQ((*tokens)[2].text, "x\ny");
}

TEST(Lexer, UnterminatedString) {
  auto tokens = Tokenize("\"oops");
  EXPECT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
}

TEST(Lexer, CompoundOperators) {
  auto kinds = Kinds(":= += -= *= == != <= >= && || < > = ! + - * / %");
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kAssign, TokenKind::kPlusEq,
                       TokenKind::kMinusEq, TokenKind::kStarEq,
                       TokenKind::kEqEq, TokenKind::kNe, TokenKind::kLe,
                       TokenKind::kGe, TokenKind::kAndAnd, TokenKind::kOrOr,
                       TokenKind::kLt, TokenKind::kGt, TokenKind::kEq,
                       TokenKind::kBang, TokenKind::kPlus, TokenKind::kMinus,
                       TokenKind::kStar, TokenKind::kSlash,
                       TokenKind::kPercent, TokenKind::kEof}));
}

TEST(Lexer, Comments) {
  auto kinds = Kinds("a # comment\n b // another\n c");
  EXPECT_EQ(kinds, (std::vector<TokenKind>{TokenKind::kIdent,
                                           TokenKind::kIdent,
                                           TokenKind::kIdent,
                                           TokenKind::kEof}));
}

TEST(Lexer, TracksLocations) {
  auto tokens = Tokenize("a\n  b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].loc.line, 1);
  EXPECT_EQ((*tokens)[0].loc.column, 1);
  EXPECT_EQ((*tokens)[1].loc.line, 2);
  EXPECT_EQ((*tokens)[1].loc.column, 3);
}

TEST(Lexer, RejectsOutOfRangeIntLiteral) {
  auto tokens = Tokenize("x = 99999999999999999999;");
  ASSERT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
  EXPECT_NE(
      tokens.status().message().find("out of range at line 1, column 5"),
      std::string::npos)
      << tokens.status().message();
  // The largest int64 still lexes.
  auto max = Tokenize("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ((*max)[0].int_value, INT64_MAX);
}

TEST(Lexer, RejectsOutOfRangeDoubleLiteral) {
  auto tokens = Tokenize("y := 1.0;\n  z := 1e999;");
  ASSERT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
  EXPECT_NE(tokens.status().message().find(
                "1e999 out of range at line 2, column 8"),
            std::string::npos)
      << tokens.status().message();
  // Underflow rounds to the nearest representable value.
  auto tiny = Tokenize("1e-999");
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ((*tiny)[0].double_value, 0.0);
}

TEST(Lexer, RejectsUnknownCharacters) {
  auto tokens = Tokenize("a @ b");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("'@'"), std::string::npos);
}

}  // namespace
}  // namespace diablo::parser
