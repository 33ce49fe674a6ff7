// The abstract-interpretation pass (interval/constant/sign facts,
// D201/D202 proven semantic errors) and the merge-operator algebra
// checker (D203). Every reported witness is replayed through the
// reference interpreter or runtime::EvalBinOp — the same no-claim-
// without-ground-truth discipline loop_lint's race witnesses follow —
// and a randomized soundness sweep checks that interval facts cover the
// values the interpreter actually observes and that D2xx never fires on
// a program the interpreter executes successfully.

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/absint.h"
#include "analysis/diagnostics.h"
#include "analysis/merge_algebra.h"
#include "analysis/restrictions.h"
#include "exec/reference_interpreter.h"
#include "parser/parser.h"
#include "runtime/operators.h"
#include "workloads/programs.h"

namespace diablo::analysis {
namespace {

using runtime::BinOp;
using runtime::Value;

ast::Program Parse(const std::string& src) {
  auto p = parser::ParseProgram(src);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return CanonicalizeIncrements(*p);
}

AbsintResult Analyze(const std::string& src) {
  return AnalyzeProgram(Parse(src));
}

const Diagnostic* FindCode(const std::vector<Diagnostic>& diags,
                           const std::string& code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

bool HasD2xx(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& d : diags) {
    if (d.code.size() == 4 && d.code[0] == 'D' && d.code[1] == '2') {
      return true;
    }
  }
  return false;
}

/// Evaluates an integer expression with the reference interpreter under
/// the witness iteration's variable bindings — the ground truth that a
/// reported witness element/divisor is what the program really computes.
int64_t RefEval(const std::string& expr,
                const std::vector<std::pair<std::string, int64_t>>& env) {
  auto p = parser::ParseProgram("var out: int = " + expr + ";");
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  exec::ReferenceInterpreter interp;
  exec::ReferenceInterpreter::Bindings inputs;
  for (const auto& [var, val] : env) inputs[var] = Value::MakeInt(val);
  Status st = interp.Run(*p, inputs);
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto out = interp.GetScalar("out");
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out->AsInt();
}

/// Runs `src` with no host inputs and returns the interpreter's status.
Status RunReference(const std::string& src,
                    exec::ReferenceInterpreter* interp) {
  auto p = parser::ParseProgram(src);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return interp->Run(*p, {});
}

// ------------------------- interval lattice --------------------------------

TEST(Interval, JoinAndContains) {
  Interval a = Interval::Of(1, 3);
  Interval b = Interval::Of(5, 7);
  EXPECT_EQ(JoinI(a, b), Interval::Of(1, 7));
  EXPECT_EQ(JoinI(a, Interval::Top()), Interval::Top());
  EXPECT_TRUE(Interval::Of(1, 7).Contains(5));
  EXPECT_FALSE(Interval::Of(1, 7).Contains(0));
  EXPECT_TRUE(Interval::Top().Contains(INT64_MIN));
}

TEST(Interval, SignProjections) {
  EXPECT_TRUE(Interval::Of(0, 9).IsNonNegative());
  EXPECT_TRUE(Interval::Of(-5, -2).IsNegative());
  EXPECT_FALSE(Interval::Of(-1, 0).IsNegative());
  EXPECT_TRUE(Interval::Const(0).IsZero());
  EXPECT_FALSE(Interval::Of(0, 1).IsZero());
  EXPECT_TRUE(Interval::Const(3).IsConst());
}

TEST(Interval, WideningJumpsGrowingBoundsToInfinity) {
  Interval prev = Interval::Of(0, 4);
  EXPECT_EQ(WidenI(prev, Interval::Of(0, 4)), Interval::Of(0, 4));
  Interval grew_hi = WidenI(prev, Interval::Of(0, 5));
  EXPECT_EQ(grew_hi.lo, 0);
  EXPECT_EQ(grew_hi.hi, Interval::kPosInf);
  Interval grew_lo = WidenI(prev, Interval::Of(-1, 4));
  EXPECT_EQ(grew_lo.lo, Interval::kNegInf);
  EXPECT_EQ(grew_lo.hi, 4);
}

TEST(Interval, SaturatingArithmetic) {
  EXPECT_EQ(AddI(Interval::Of(1, 2), Interval::Of(10, 20)),
            Interval::Of(11, 22));
  EXPECT_EQ(SubI(Interval::Of(0, 3), Interval::Of(0, 3)),
            Interval::Of(-3, 3));
  EXPECT_EQ(MulI(Interval::Of(-2, 3), Interval::Of(4, 5)),
            Interval::Of(-10, 15));
  EXPECT_EQ(MulI(Interval::Const(0), Interval::Top()), Interval::Const(0));
  EXPECT_EQ(NegI(Interval::Of(-5, -2)), Interval::Of(2, 5));
  EXPECT_EQ(MinI(Interval::Of(0, 9), Interval::Of(4, 20)),
            Interval::Of(0, 9));
  EXPECT_EQ(MaxI(Interval::Of(0, 9), Interval::Of(4, 20)),
            Interval::Of(4, 20));
  // A bound at an extreme stays infinite instead of wrapping.
  Interval big = AddI(Interval::Of(0, Interval::kPosInf), Interval::Const(1));
  EXPECT_EQ(big.hi, Interval::kPosInf);
  EXPECT_EQ(big.lo, 1);
}

TEST(Interval, ToStringForms) {
  EXPECT_EQ(Interval::Const(3).ToString(), "{3}");
  EXPECT_EQ(Interval::Of(0, 9).ToString(), "[0,9]");
  EXPECT_EQ(Interval::Of(0, Interval::kPosInf).ToString(), "[0,+inf)");
  EXPECT_EQ(Interval::Top().ToString(), "(-inf,+inf)");
}

// ------------------------- scalar interval facts ---------------------------

TEST(Absint, ConstantPropagationThroughArithmetic) {
  AbsintResult r = Analyze(
      "var n: int = 8;\n"
      "var m: int = n * 2 + 1;\n");
  ASSERT_TRUE(r.int_scalars.count("n"));
  ASSERT_TRUE(r.int_scalars.count("m"));
  EXPECT_EQ(r.int_scalars.at("n"), Interval::Const(8));
  EXPECT_EQ(r.int_scalars.at("m"), Interval::Const(17));
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Absint, BranchJoinWidensToCoveringInterval) {
  // `flag` is a host input, so the branch is not decidable: the fact for
  // `a` must cover both the 0 and the 5 binding.
  AbsintResult r = Analyze(
      "var a: int = 0;\n"
      "if (flag) a := 5;\n");
  ASSERT_TRUE(r.int_scalars.count("a"));
  EXPECT_TRUE(r.int_scalars.at("a").Contains(0));
  EXPECT_TRUE(r.int_scalars.at("a").Contains(5));
}

TEST(Absint, LoopIndexGetsRangeInterval) {
  AbsintResult r = Analyze(
      "var s: int = 0;\n"
      "for i = 2, 9 do\n"
      "  s := i;\n");
  ASSERT_TRUE(r.int_scalars.count("i"));
  const Interval& i = r.int_scalars.at("i");
  EXPECT_TRUE(i.Contains(2));
  EXPECT_TRUE(i.Contains(9));
  const Interval& s = r.int_scalars.at("s");
  EXPECT_TRUE(s.Contains(0));
  EXPECT_TRUE(s.Contains(9));
}

// ------------------------- D201: out-of-bounds write -----------------------

constexpr const char kOobWrite[] = R"(
var V: vector[double] = vector();
for i = 0, 3 do
  V[i - 5] := 1.0 * i;
)";

TEST(Absint, OobWriteReportsWitness) {
  AbsintResult r = Analyze(kOobWrite);
  const Diagnostic* d = FindCode(r.diagnostics, diag::kOutOfBoundsWrite);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  ASSERT_TRUE(d->witness.has_value());
  const Witness& w = *d->witness;
  EXPECT_EQ(w.kind, "oob-write");
  EXPECT_EQ(w.array, "V");
  ASSERT_EQ(w.element.size(), 1u);
  EXPECT_EQ(w.element[0], -5);
  ASSERT_EQ(w.write_iteration.size(), 1u);
  EXPECT_EQ(w.write_iteration[0].first, "i");
  EXPECT_EQ(w.write_iteration[0].second, 0);
  EXPECT_EQ(w.ToString(), "write at i=0 touches V[-5]");
}

TEST(Absint, OobWitnessConfirmedByReferenceInterpreter) {
  AbsintResult r = Analyze(kOobWrite);
  const Diagnostic* d = FindCode(r.diagnostics, diag::kOutOfBoundsWrite);
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->witness.has_value());
  // The subscript under the witness iteration is the witness element,
  // and it is genuinely out of bounds (negative for a dense vector).
  int64_t elem = RefEval("i - 5", d->witness->write_iteration);
  EXPECT_EQ(elem, d->witness->element[0]);
  EXPECT_LT(elem, 0);
  // And the interpreter itself faults on the program: the diagnostic
  // claims a proven error, so ground truth must agree.
  exec::ReferenceInterpreter interp;
  Status st = RunReference(kOobWrite, &interp);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("out-of-bounds"), std::string::npos)
      << st.ToString();
}

TEST(Absint, InBoundsWriteIsClean) {
  const std::string src =
      "var V: vector[double] = vector();\n"
      "for i = 0, 3 do\n"
      "  V[i + 1] := 1.0 * i;\n";
  AbsintResult r = Analyze(src);
  EXPECT_FALSE(HasD2xx(r.diagnostics));
  exec::ReferenceInterpreter interp;
  EXPECT_TRUE(RunReference(src, &interp).ok());
}

TEST(Absint, PossiblyNegativeSubscriptDoesNotFire) {
  // i - 2 has interval [-2, 1]: not *provably* negative, so no D201.
  AbsintResult r = Analyze(
      "var V: vector[double] = vector();\n"
      "for i = 0, 3 do\n"
      "  V[i - 2] := 1.0 * i;\n");
  EXPECT_FALSE(HasD2xx(r.diagnostics));
}

// ------------------------- D202: provably-zero divisor ---------------------

TEST(Absint, ZeroDivisorConstant) {
  const std::string src =
      "var d: int = 0;\n"
      "var x: int = 10 / d;\n";
  AbsintResult r = Analyze(src);
  const Diagnostic* diag = FindCode(r.diagnostics, diag::kZeroDivisor);
  ASSERT_NE(diag, nullptr);
  ASSERT_TRUE(diag->witness.has_value());
  EXPECT_EQ(diag->witness->kind, "zero-divisor");
  exec::ReferenceInterpreter interp;
  Status st = RunReference(src, &interp);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("division by zero"), std::string::npos)
      << st.ToString();
}

TEST(Absint, ZeroDivisorInLoopWitnessConfirmed) {
  const std::string src =
      "var t: int = 0;\n"
      "for i = 0, 3 do\n"
      "  t := 10 / (i * 0);\n";
  AbsintResult r = Analyze(src);
  const Diagnostic* d = FindCode(r.diagnostics, diag::kZeroDivisor);
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->witness.has_value());
  // The divisor expression evaluates to zero under the witness bindings.
  EXPECT_EQ(RefEval("i * 0", d->witness->write_iteration), 0);
  exec::ReferenceInterpreter interp;
  Status st = RunReference(src, &interp);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("division by zero"), std::string::npos);
}

TEST(Absint, PossiblyZeroDivisorDoesNotFire) {
  // The divisor interval [0, 3] contains nonzero values: no proof.
  AbsintResult r = Analyze(
      "var t: int = 0;\n"
      "for i = 0, 3 do\n"
      "  t := 10 / (i + 1);\n");
  EXPECT_FALSE(HasD2xx(r.diagnostics));
}

TEST(Absint, ShortCircuitedZeroDivisorDoesNotFire) {
  // && and || short-circuit, so a division behind an undecided left
  // operand does not run on every path; the interpreter agrees.
  for (const char* cond : {"i < 0 && 1 / 0 > 0", "i >= 0 || 1 / 0 > 0"}) {
    const std::string src = std::string(
                                "var t: int = 0;\n"
                                "for i = 0, 3 do\n"
                                "  if (") +
                            cond + ")\n    t += 1;\n";
    AbsintResult r = Analyze(src);
    EXPECT_FALSE(HasD2xx(r.diagnostics)) << cond;
    exec::ReferenceInterpreter interp;
    EXPECT_TRUE(RunReference(src, &interp).ok()) << cond;
  }
  // A left operand that provably lets the right one run keeps the proof.
  const std::string src =
      "var t: int = 0;\n"
      "if (true && 1 / 0 > 0)\n"
      "  t := 1;\n";
  EXPECT_NE(FindCode(Analyze(src).diagnostics, diag::kZeroDivisor), nullptr);
  exec::ReferenceInterpreter interp;
  EXPECT_FALSE(RunReference(src, &interp).ok());
}

// ------------------------- merge-operator algebra --------------------------

TEST(MergeAlgebra, CommutativeMonoidsAreProven) {
  for (BinOp op : {BinOp::kAdd, BinOp::kMul, BinOp::kMin, BinOp::kMax,
                   BinOp::kAnd, BinOp::kOr}) {
    OpAlgebra a = CheckOperatorAlgebra(op);
    EXPECT_TRUE(a.IsProvenMonoid()) << runtime::BinOpName(op);
    EXPECT_FALSE(a.assoc_counterexample.has_value());
  }
}

TEST(MergeAlgebra, SubtractionRefutedWithValidCounterexample) {
  OpAlgebra a = CheckOperatorAlgebra(BinOp::kSub);
  EXPECT_EQ(a.associative, AlgebraVerdict::kRefuted);
  EXPECT_EQ(a.commutative, AlgebraVerdict::kRefuted);
  ASSERT_TRUE(a.assoc_counterexample.has_value());
  auto [x, y, z] = *a.assoc_counterexample;
  // Replay through the same evaluator the interpreter uses: the triple
  // must genuinely break associativity.
  auto lhs = runtime::EvalBinOp(
      BinOp::kSub, *runtime::EvalBinOp(BinOp::kSub, Value::MakeInt(x),
                                       Value::MakeInt(y)),
      Value::MakeInt(z));
  auto rhs = runtime::EvalBinOp(
      BinOp::kSub, Value::MakeInt(x),
      *runtime::EvalBinOp(BinOp::kSub, Value::MakeInt(y),
                          Value::MakeInt(z)));
  ASSERT_TRUE(lhs.ok() && rhs.ok());
  EXPECT_NE(lhs->Compare(*rhs), 0);
  // RefEval agrees (interpreter-level ground truth).
  std::vector<std::pair<std::string, int64_t>> env = {
      {"a", x}, {"b", y}, {"c", z}};
  EXPECT_NE(RefEval("(a - b) - c", env), RefEval("a - (b - c)", env));
}

TEST(MergeAlgebra, DivisionAndModuloRefuted) {
  EXPECT_EQ(CheckOperatorAlgebra(BinOp::kDiv).associative,
            AlgebraVerdict::kRefuted);
  EXPECT_EQ(CheckOperatorAlgebra(BinOp::kMod).associative,
            AlgebraVerdict::kRefuted);
}

constexpr const char kNonAssocMerge[] = R"(
var acc: double = 100.0;
for i = 0, 7 do
  acc := acc - V[i];
)";

TEST(MergeAlgebra, NonAssocSelfMergeReportsD203) {
  std::vector<Diagnostic> diags = LintMergeOperators(Parse(kNonAssocMerge));
  const Diagnostic* d = FindCode(diags, diag::kNonAssociativeMerge);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  ASSERT_TRUE(d->witness.has_value());
  const Witness& w = *d->witness;
  EXPECT_EQ(w.kind, "nonassoc");
  EXPECT_EQ(w.array, "-");
  ASSERT_EQ(w.write_iteration.size(), 3u);
  // The counterexample in the witness breaks associativity for real.
  std::vector<std::pair<std::string, int64_t>> env(
      w.write_iteration.begin(), w.write_iteration.end());
  EXPECT_NE(RefEval("(a - b) - c", env), RefEval("a - (b - c)", env));
}

TEST(MergeAlgebra, CommutativeSelfMergeIsClean) {
  std::vector<Diagnostic> diags = LintMergeOperators(Parse(
      "var acc: double = 0.0;\n"
      "for i = 0, 7 do\n"
      "  acc := acc + V[i];\n"));
  EXPECT_EQ(FindCode(diags, diag::kNonAssociativeMerge), nullptr);
}

TEST(MergeAlgebra, SequentialWhileBodyIsExempt) {
  // While-loops run sequentially; a non-associative accumulation there
  // is not translated to a parallel reduction.
  std::vector<Diagnostic> diags = LintMergeOperators(Parse(
      "var acc: double = 100.0;\n"
      "var k: int = 0;\n"
      "while (k < 3) {\n"
      "  acc := acc - 1.0;\n"
      "  k += 1;\n"
      "}\n"));
  EXPECT_EQ(FindCode(diags, diag::kNonAssociativeMerge), nullptr);
}

// ------------------------- no false positives ------------------------------

TEST(Absint, NoD2xxOnAnyBenchmarkProgram) {
  for (const auto& spec : bench::BenchmarkPrograms()) {
    ast::Program p = Parse(spec.source);
    AbsintResult r = AnalyzeProgram(p);
    EXPECT_FALSE(HasD2xx(r.diagnostics)) << spec.name;
    EXPECT_FALSE(HasD2xx(LintMergeOperators(p))) << spec.name;
  }
  for (const auto& entry : bench::Table1Programs()) {
    ast::Program p = Parse(entry.source);
    AbsintResult r = AnalyzeProgram(p);
    EXPECT_FALSE(HasD2xx(r.diagnostics)) << entry.name;
    EXPECT_FALSE(HasD2xx(LintMergeOperators(p))) << entry.name;
  }
}

// ------------------------- randomized soundness ----------------------------

/// A small random straight-line/loop program over int scalars a, b and a
/// dense vector V. Subscript offsets may be negative, so some programs
/// fault in the interpreter — exactly the split the soundness property
/// needs: D2xx may fire only on the faulting ones.
std::string RandomProgram(std::mt19937_64& rng) {
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % (hi - lo + 1));
  };
  std::ostringstream os;
  os << "var a: int = " << pick(-3, 3) << ";\n";
  os << "var b: int = " << pick(-3, 3) << ";\n";
  os << "var V: vector[double] = vector();\n";
  int lo = pick(0, 2);
  int hi = lo + pick(0, 4);
  int k = pick(-2, 3);
  os << "for i = " << lo << ", " << hi << " do {\n";
  if (k >= 0) {
    os << "  V[i + " << k << "] := 1.0 * i;\n";
  } else {
    os << "  V[i - " << -k << "] := 1.0 * i;\n";
  }
  switch (pick(0, 3)) {
    case 0:
      os << "  a := b + " << pick(-2, 2) << ";\n";
      break;
    case 1:
      os << "  b := a * 2;\n";
      break;
    case 2:
      os << "  a := i - " << pick(0, 2) << ";\n";
      break;
    default:
      break;
  }
  os << "}\n";
  os << "b := a * " << pick(-2, 2) << ";\n";
  return os.str();
}

TEST(Absint, RandomizedSoundnessSweep) {
  std::mt19937_64 rng(20260808);
  int executed = 0;
  int faulted = 0;
  for (int trial = 0; trial < 80; ++trial) {
    std::string src = RandomProgram(rng);
    SCOPED_TRACE(src);
    ast::Program p = Parse(src);
    AbsintResult r = AnalyzeProgram(p);
    exec::ReferenceInterpreter interp;
    Status st = interp.Run(p, {});
    if (st.ok()) {
      ++executed;
      // Soundness of the error codes: a *proven* error can never fire
      // on a program the interpreter executes successfully.
      EXPECT_FALSE(HasD2xx(r.diagnostics));
      // Soundness of the interval facts: every observed final scalar
      // value lies inside its reported interval (no unsound narrowing).
      for (const char* name : {"a", "b"}) {
        auto v = interp.GetScalar(name);
        ASSERT_TRUE(v.ok()) << v.status().ToString();
        ASSERT_TRUE(r.int_scalars.count(name)) << name;
        EXPECT_TRUE(r.int_scalars.at(name).Contains(v->AsInt()))
            << name << " = " << v->AsInt() << " outside "
            << r.int_scalars.at(name).ToString();
      }
    } else {
      ++faulted;
      // When the analysis proves an out-of-bounds write, the program
      // must indeed have faulted on one.
      if (FindCode(r.diagnostics, diag::kOutOfBoundsWrite) != nullptr) {
        EXPECT_NE(st.ToString().find("out-of-bounds"), std::string::npos);
      }
    }
  }
  // The sweep must exercise both sides of the split to mean anything.
  EXPECT_GT(executed, 10);
  EXPECT_GT(faulted, 5);
}

}  // namespace
}  // namespace diablo::analysis
