// diablo_lint: static analyzer for loop-language programs.
//
// Level 1 (loops) checks every parallelizable for-loop against the
// restrictions of Definition 3.1 and reports each violation as a stable
// diagnostic code (D001-D007) with a concrete two-iteration race witness
// when one exists in a small index domain, plus advisory lints
// (D101-D103) for accepted-but-suspicious shapes.
//
// Level 1.5 (abstract interpretation) runs the interval/constant/sign
// analysis and the merge-operator algebra checker, reporting proven
// semantic errors (D201 out-of-bounds write, D202 zero divisor, D203
// non-associative merge) with concrete witnesses.
//
// Level 2 (plans) compiles the program and plans every comprehension
// with the real planner, reporting the wide (shuffle) stages each
// statement runs with estimated shuffled bytes per row (P001/P002,
// typed ColumnSchema widths when inferred) and advisory lints for
// expensive or improvable plan shapes (P101-P105), plus interval-backed
// cost advisories (P201 key cardinality, P202 broadcast-join hint).
//
// Usage:
//   diablo_lint PROGRAM.diablo [options]
//
// Options:
//   --format=text|json   output format (default text)
//   --no-plan            skip the plan-level (level 2) analysis
//   --no-opt             plan-lint the unoptimized target code
//   --max-domain N       witness search domain per loop index (default 6)
//   --bytes-per-slot N   shuffled-bytes model for P001 (default 16)
//   --profile-in=FILE    a prior `diablo_run --profile-out` JSON: P001
//                        stage notes and the P201/P202 cost advisories
//                        report the measured shuffle bytes and key
//                        cardinality next to the static estimates
//                        (matched by provenance; stale profiles simply
//                        add no evidence). The JSON output schema is
//                        unchanged — evidence lands in the message text.
//
// Exit codes: 0 no error-severity diagnostics (warnings and notes are
// fine), 2 parse error, 3 error diagnostics reported, 4 translation
// error, 6 invalid argument, 7 unsupported feature, 1 CLI or I/O error.

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "analysis/loop_lint.h"
#include "analysis/merge_algebra.h"
#include "analysis/plan_lint.h"
#include "analysis/restrictions.h"
#include "diablo/diablo.h"
#include "parser/parser.h"
#include "flag_parse.h"

namespace diablo::cli {

void Die(const std::string& message) {
  std::fprintf(stderr, "diablo_lint: %s\n", message.c_str());
  std::exit(1);
}

}  // namespace diablo::cli

namespace {

using diablo::Status;
using diablo::StatusCode;
using diablo::cli::Die;
using diablo::cli::ParseIntFlagIn;
namespace analysis = diablo::analysis;

int ExitCodeFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kParseError:
      return 2;
    case StatusCode::kRestrictionViolation:
      return 3;
    case StatusCode::kTranslationError:
      return 4;
    case StatusCode::kRuntimeError:
    case StatusCode::kTaskLost:
      return 5;
    case StatusCode::kInvalidArgument:
      return 6;
    case StatusCode::kUnsupported:
      return 7;
    case StatusCode::kDistError:
      return 1;  // the linter never reaches the distributed backend
  }
  return 1;
}

[[noreturn]] void DieStatus(const Status& status) {
  std::string msg = status.ToString();
  size_t eol = msg.find('\n');
  if (eol != std::string::npos) msg.resize(eol);
  std::fprintf(stderr, "diablo_lint: %s\n", msg.c_str());
  std::exit(ExitCodeFor(status.code()));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string program_path;
  std::string profile_in;
  bool json = false;
  bool plan_level = true;
  diablo::CompileOptions compile_options;
  analysis::LoopLintOptions loop_options;
  analysis::PlanLintOptions plan_options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die(arg + " needs an argument");
      return argv[++i];
    };
    if (arg == "--format=text" || arg == "--format=TEXT") {
      json = false;
    } else if (arg == "--format=json") {
      json = true;
    } else if (arg == "--format") {
      std::string v = next();
      if (v == "json") {
        json = true;
      } else if (v == "text") {
        json = false;
      } else {
        Die("--format expects text or json, got " + v);
      }
    } else if (arg == "--no-plan") {
      plan_level = false;
    } else if (arg == "--no-opt") {
      compile_options.enable_optimizer = false;
    } else if (arg == "--max-domain") {
      loop_options.max_domain =
          static_cast<int>(ParseIntFlagIn(arg, next(), 2, INT_MAX));
    } else if (arg == "--bytes-per-slot") {
      plan_options.bytes_per_slot =
          static_cast<int>(ParseIntFlagIn(arg, next(), 1, INT_MAX));
    } else if (arg == "--profile-in" || arg.rfind("--profile-in=", 0) == 0) {
      profile_in = arg.size() > 13 ? arg.substr(13) : next();
    } else if (arg.rfind("--", 0) == 0) {
      Die("unknown option " + arg);
    } else if (program_path.empty()) {
      program_path = arg;
    } else {
      Die("multiple program files given");
    }
  }
  if (program_path.empty()) {
    Die("usage: diablo_lint PROGRAM.diablo [--format=text|json] "
        "[--no-plan] [--no-opt] [--max-domain N] [--bytes-per-slot N] "
        "[--profile-in FILE]");
  }

  std::string source = ReadFile(program_path);

  // Measured evidence (--profile-in): parsed once, matched against plan
  // nodes by provenance. The stage file names in a profile are the
  // program basename the profiled run used, so match on ours.
  std::unique_ptr<diablo::runtime::ProfileData> profile;
  if (!profile_in.empty()) {
    auto parsed_profile =
        diablo::runtime::ProfileData::Parse(ReadFile(profile_in));
    if (!parsed_profile.ok()) DieStatus(parsed_profile.status());
    profile = std::make_unique<diablo::runtime::ProfileData>(
        std::move(parsed_profile.value()));
    plan_options.profile = profile.get();
    size_t slash = program_path.find_last_of('/');
    plan_options.profile_file = slash == std::string::npos
                                    ? program_path
                                    : program_path.substr(slash + 1);
  }

  auto parsed = diablo::parser::ParseProgram(source);
  if (!parsed.ok()) DieStatus(parsed.status());
  diablo::ast::Program canon =
      analysis::CanonicalizeIncrements(parsed.value());

  std::vector<analysis::Diagnostic> diags =
      analysis::LintLoops(canon, loop_options);

  // Level 1.5: abstract interpretation (D201/D202) and merge-operator
  // algebra (D203). The interval facts also feed the plan level below.
  analysis::AbsintResult absint = analysis::AnalyzeProgram(canon);
  diags.insert(diags.end(), absint.diagnostics.begin(),
               absint.diagnostics.end());
  for (analysis::Diagnostic& d : analysis::LintMergeOperators(canon)) {
    diags.push_back(std::move(d));
  }
  plan_options.int_scalars = &absint.int_scalars;

  // Level 2 only applies to programs the translator accepts; loop-level
  // errors already are the explanation of why it will not.
  if (plan_level && !analysis::HasErrors(diags)) {
    auto compiled = diablo::Compile(source, compile_options);
    if (!compiled.ok()) DieStatus(compiled.status());
    std::set<std::string> array_vars;
    for (const auto& [name, info] : compiled->vars) {
      if (info.is_array) array_vars.insert(name);
    }
    analysis::PlanLintResult plan_result =
        analysis::LintTargetProgram(compiled->target, array_vars,
                                    plan_options);
    diags.insert(diags.end(), plan_result.diagnostics.begin(),
                 plan_result.diagnostics.end());
  }
  analysis::SortAndDedupe(&diags);

  if (json) {
    std::printf("%s\n",
                analysis::RenderJsonAll(diags, program_path).c_str());
  } else {
    std::printf("%s", analysis::RenderTextAll(diags, source,
                                              program_path).c_str());
    std::printf("%d error(s), %d warning(s), %d note(s)\n",
                analysis::CountSeverity(diags,
                                        analysis::Severity::kError),
                analysis::CountSeverity(diags,
                                        analysis::Severity::kWarning),
                analysis::CountSeverity(diags,
                                        analysis::Severity::kNote));
  }
  return analysis::HasErrors(diags) ? 3 : 0;
}
