// Ablation AB8 — tracing overhead (EngineConfig::tracing on/off). Three
// measurements:
//   1. a reduceByKey micro at >= 2M rows, traced vs untraced — the span
//      hooks sit on the hottest driver path, so this bounds the
//      worst-case overhead (gated at < 5% in CI by
//      tools/check_trace_overhead.py over the BM_ReduceByKeyHot pair),
//   2. an iterative multi-wave loop (many short waves => many spans),
//   3. the Figure-3 workloads, tracing on vs off, outputs compared
//      byte-for-byte — tracing must never change a result.
//
// Usage: bench_ablation_trace [reps] [rows]   (defaults: 3, 2000000)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <random>
#include <vector>

#include "runtime/engine.h"
#include "workloads/harness.h"
#include "workloads/programs.h"

namespace {

using diablo::StatusOr;
using diablo::runtime::BinOp;
using diablo::runtime::Dataset;
using diablo::runtime::Engine;
using diablo::runtime::EngineConfig;
using diablo::runtime::Value;
using diablo::runtime::ValueVec;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ValueVec KeyedRows(int64_t n, int64_t keys) {
  ValueVec rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Value::MakePair(Value::MakeInt((i * 2654435761LL) % keys),
                                   Value::MakeDouble(i * 0.25)));
  }
  return rows;
}

/// Times `body` best-of-`reps` against a fresh engine per rep; stores the
/// last output for the byte-identity check.
double TimeBody(const EngineConfig& config, int reps, const char* what,
                const std::function<StatusOr<ValueVec>(Engine&)>& body,
                ValueVec* out) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Engine engine(config);
    double t0 = Now();
    auto result = body(engine);
    double dt = Now() - t0;
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", what,
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (dt < best) best = dt;
    if (out != nullptr) *out = *result;
  }
  return best;
}

/// "+1.3%" style overhead of traced over untraced.
double OverheadPct(double traced_s, double untraced_s) {
  return untraced_s > 0 ? (traced_s / untraced_s - 1.0) * 100.0 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 3;
  const int64_t n = argc > 2 ? std::atoll(argv[2]) : 2000000;
  const int64_t keys = n / 8;

  std::printf("AB8: tracing overhead ablation (EngineConfig::tracing on/off)\n\n");

  bool all_equal = true;

  // --- 1. reduceByKey micro ----------------------------------------------
  {
    ValueVec rows = KeyedRows(n, keys);
    auto body = [&rows](Engine& engine) -> StatusOr<ValueVec> {
      Dataset ds = engine.Parallelize(rows);
      DIABLO_ASSIGN_OR_RETURN(Dataset sums, engine.ReduceByKey(ds, BinOp::kAdd));
      return engine.Collect(sums);
    };
    EngineConfig traced;
    EngineConfig untraced;
    untraced.tracing = false;
    ValueVec traced_out, untraced_out;
    const double traced_s = TimeBody(traced, reps, "reduceByKey", body,
                                     &traced_out);
    const double untraced_s = TimeBody(untraced, reps, "reduceByKey", body,
                                       &untraced_out);
    const bool equal = traced_out == untraced_out;
    all_equal = all_equal && equal;
    std::printf("reduceByKey, %lld rows, %lld keys, best of %d\n",
                static_cast<long long>(n), static_cast<long long>(keys), reps);
    std::printf("  untraced (tracing=0): %8.3f s\n", untraced_s);
    std::printf("  traced   (tracing=1): %8.3f s\n", traced_s);
    std::printf("  overhead:             %+8.2f%%   identical: %s\n\n",
                OverheadPct(traced_s, untraced_s), equal ? "yes" : "NO");
  }

  // --- 2. iterative multi-wave loop --------------------------------------
  {
    // Many short waves: the per-wave/per-task span bookkeeping is the
    // whole cost here, so this is the tracer's worst realistic case.
    const int iters = 64;
    ValueVec rows = KeyedRows(n / 100, 500);
    auto body = [&rows, iters](Engine& engine) -> StatusOr<ValueVec> {
      Dataset cur = engine.Parallelize(rows);
      for (int iter = 0; iter < iters; ++iter) {
        DIABLO_ASSIGN_OR_RETURN(Dataset sums,
                                engine.ReduceByKey(cur, BinOp::kAdd));
        DIABLO_ASSIGN_OR_RETURN(
            cur, engine.MapValues(sums, [](const Value& v) -> StatusOr<Value> {
              return Value::MakeDouble(v.AsDouble() * 0.5);
            }));
      }
      return engine.Collect(cur);
    };
    EngineConfig traced;
    traced.host_threads = 4;
    EngineConfig untraced = traced;
    untraced.tracing = false;
    ValueVec traced_out, untraced_out;
    const double traced_s = TimeBody(traced, reps, "loop traced", body,
                                     &traced_out);
    const double untraced_s = TimeBody(untraced, reps, "loop untraced", body,
                                       &untraced_out);
    const bool equal = traced_out == untraced_out;
    all_equal = all_equal && equal;
    std::printf("%d-iteration reduceByKey loop, %lld rows, host_threads=4\n",
                iters, static_cast<long long>(n / 100));
    std::printf("  untraced: %8.3f s\n  traced:   %8.3f s\n", untraced_s,
                traced_s);
    std::printf("  overhead: %+8.2f%%   identical: %s\n\n",
                OverheadPct(traced_s, untraced_s), equal ? "yes" : "NO");
  }

  // --- 3. Figure-3 workloads ---------------------------------------------
  std::printf("%-24s %10s %10s %9s %6s\n", "workload", "untraced s",
              "traced s", "overhead", "match");
  for (const char* name : {"word_count", "group_by", "pagerank"}) {
    const auto& spec = diablo::bench::GetProgram(name);
    std::mt19937_64 rng(11);
    const int64_t scale = spec.name == "pagerank" ? 7 : 50000;
    diablo::Bindings inputs = spec.make_inputs(scale, rng);
    EngineConfig traced;
    EngineConfig untraced;
    untraced.tracing = false;
    double best_traced = 1e300, best_untraced = 1e300;
    StatusOr<diablo::bench::RunStats> traced_stats =
        diablo::Status::RuntimeError("not run");
    StatusOr<diablo::bench::RunStats> untraced_stats =
        diablo::Status::RuntimeError("not run");
    for (int r = 0; r < reps; ++r) {
      traced_stats = diablo::bench::RunDiablo(spec, inputs, traced);
      if (traced_stats.ok() && traced_stats->wall_seconds < best_traced) {
        best_traced = traced_stats->wall_seconds;
      }
      untraced_stats = diablo::bench::RunDiablo(spec, inputs, untraced);
      if (untraced_stats.ok() &&
          untraced_stats->wall_seconds < best_untraced) {
        best_untraced = untraced_stats->wall_seconds;
      }
    }
    if (!traced_stats.ok() || !untraced_stats.ok()) {
      std::printf("%-24s ERROR: %s\n", name,
                  (!traced_stats.ok() ? traced_stats : untraced_stats)
                      .status()
                      .ToString()
                      .c_str());
      all_equal = false;
      continue;
    }
    const bool equal = traced_stats->output == untraced_stats->output;
    all_equal = all_equal && equal;
    std::printf("%-24s %10.4f %10.4f %+8.2f%% %6s\n", name, best_untraced,
                best_traced, OverheadPct(best_traced, best_untraced),
                equal ? "yes" : "NO");
  }

  std::printf(
      "\nThe tracing-off path is one null-pointer test per hook; traced\n"
      "runs add a mutex-guarded span append per task and a handful of\n"
      "driver-side spans per stage. Outputs must match bit-for-bit.\n");
  if (!all_equal) {
    std::fprintf(stderr, "AB8 FAILED: tracing changed an output\n");
    return 1;
  }
  return 0;
}
