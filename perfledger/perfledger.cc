// The end-to-end, per-layer benchmark ledger (driven by perfledger/run.py).
//
//   perfledger reference --workload W --seed N --reference-dir DIR
//       Runs every program of workload W under the sequential reference
//       interpreter on the inputs seed N generates, and writes their
//       outputs to DIR (skipping programs already there). A separate
//       process, so neither its time nor its memory reaches the
//       measured process.
//
//   perfledger measure --workload W --seed N --seconds T --trace 0|1
//                      --reference-dir DIR [--record OUT]
//       Sets up (input generation + one warm-up pass) several times
//       between timed passes, T seconds in all. Every pass's outputs are
//       compared with the references in DIR. With --trace 0 it reports
//       the end-to-end metrics from untraced passes; with --trace 1 it
//       interleaves untraced and traced passes and reports the per-layer
//       metrics.
//       The last stdout line is the result JSON; --record also writes
//       it, with the run metadata, to OUT.
//
// Workloads, scales and the metric catalogue are documented in
// perfledger/spec.json; run.py checks that the two agree.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "diablo/diablo.h"
#include "dist/coordinator.h"
#include "layers.h"
#include "runtime/operators.h"
#include "runtime/serialize.h"
#include "workloads/programs.h"
#include "workloads/workloads.h"

namespace perfledger {
namespace {

using diablo::Bindings;
using diablo::CompiledProgram;
using diablo::ProgramRun;
using diablo::Status;
using diablo::StatusOr;
using diablo::runtime::Engine;
using diablo::runtime::EngineConfig;
using diablo::runtime::Value;
using diablo::runtime::ValueVec;

// ------------------------------ workloads ---------------------------------

struct ProgramScale {
  std::string program;
  int64_t scale;  ///< ProgramSpec::make_inputs' n (RMAT scale for pagerank)
};

struct Workload {
  std::string name;
  std::vector<ProgramScale> programs;
  /// A pass is only the Compile calls; the scales size the inputs that
  /// validate the compiled programs once, outside the timed passes.
  bool compile_only = false;
  int partitions = 16;
  int threads = 4;
  int dist_workers = 0;
  /// Traced passes repeat at host_threads 1 for runtime.scaling_4t.
  bool scaling = false;
};

constexpr int kPageRankSteps = 5;
/// Reference programs run in parallel, at most this many at once.
constexpr size_t kReferenceThreads = 4;

/// Input scale that validates a Table 1 program at interpreter speed.
int64_t CheckScale(const std::string& name) {
  if (name == "matrix_multiplication") return 6;
  if (name == "pagerank") return 4;
  if (name == "kmeans") return 60;
  if (name == "matrix_factorization") return 8;
  return 200;
}

const std::vector<Workload>& Workloads() {
  static const auto* workloads = [] {
    auto* w = new std::vector<Workload>;
    Workload compile{"table1_compile", {}, true, 0, 0, 0, false};
    for (const auto& entry : diablo::bench::Table1Programs()) {
      compile.programs.push_back({entry.name, CheckScale(entry.name)});
    }
    w->push_back(compile);
    w->push_back({"table2_flat",
                  {{"conditional_sum", 400000},
                   {"equal", 400000},
                   {"word_count", 400000},
                   {"group_by", 200000},
                   {"histogram", 200000}},
                  false, 16, 4, 0, true});
    w->push_back({"table2_iterative",
                  {{"pagerank", 9},
                   {"kmeans", 20000},
                   {"matrix_multiplication", 64},
                   {"matrix_factorization", 128}},
                  false, 16, 4, 0, true});
    w->push_back({"dist_mix",
                  {{"word_count", 200000}, {"pagerank", 9}},
                  false, 16, 1, 2, false});
    return w;
  }();
  return *workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// ------------------------------- programs ---------------------------------

/// One program of a workload: source, output variables, tolerance.
struct Case {
  std::string name;
  int64_t scale = 0;
  std::string source;
  std::vector<std::string> scalars;
  std::vector<std::string> arrays;
  double tolerance = 1e-6;
};

/// Outputs of the six Table 1 programs that have no ProgramSpec.
struct Table1Outputs {
  const char* name;
  std::vector<std::string> scalars;
  std::vector<std::string> arrays;
};

const std::vector<Table1Outputs>& Table1OnlyOutputs() {
  static const auto* outputs = new std::vector<Table1Outputs>{
      {"average", {"sum", "cnt", "avg"}, {}},
      {"conditional_count", {"cnt"}, {}},
      {"count", {"cnt"}, {}},
      {"sum", {"sum"}, {}},
      {"equal_frequency", {"eqf"}, {"C"}},
      {"pca", {"cxx", "cxy", "cyy"}, {}},
  };
  return *outputs;
}

const diablo::bench::ProgramSpec* FindSpec(const std::string& name) {
  for (const auto& spec : diablo::bench::BenchmarkPrograms()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Case MakeCase(const ProgramScale& ps) {
  Case c;
  c.name = ps.program;
  c.scale = ps.scale;
  if (const auto* spec = FindSpec(ps.program)) {
    c.source = spec->source;
    c.scalars = spec->scalar_outputs;
    c.arrays = spec->array_outputs;
    c.tolerance = spec->tolerance;
    return c;
  }
  for (const auto& entry : diablo::bench::Table1Programs()) {
    if (entry.name == ps.program) c.source = entry.source;
  }
  for (const auto& out : Table1OnlyOutputs()) {
    if (c.name == out.name) {
      c.scalars = out.scalars;
      c.arrays = out.arrays;
    }
  }
  return c;
}

/// Inputs of a program at its scale, a function of the seed only: the
/// same program at the same scale gets the same inputs in every workload.
Bindings MakeInputs(const Case& c, uint64_t seed) {
  uint32_t name_hash = 2166136261u;  // FNV-1a
  for (char ch : c.name) {
    name_hash = (name_hash ^ static_cast<unsigned char>(ch)) * 16777619u;
  }
  std::seed_seq seq{static_cast<uint32_t>(seed),
                    static_cast<uint32_t>(seed >> 32), name_hash,
                    static_cast<uint32_t>(c.scale)};
  std::mt19937_64 rng(seq);
  if (const auto* spec = FindSpec(c.name)) {
    Bindings inputs = spec->make_inputs(c.scale, rng);
    if (c.name == "pagerank") {
      inputs["num_steps"] = Value::MakeInt(kPageRankSteps);
    }
    return inputs;
  }
  if (c.name == "equal_frequency") {
    return {{"words", diablo::bench::RandomStringVector(c.scale, 20, rng)}};
  }
  if (c.name == "pca") {
    return {{"P", diablo::bench::RegressionPoints(c.scale, rng)},
            {"n", Value::MakeDouble(static_cast<double>(c.scale))}};
  }
  return {{"V", diablo::bench::RandomDoubleVector(c.scale, 200.0, rng)}};
}

StatusOr<ValueVec> CollectOutputs(const ProgramRun& run, const Case& c) {
  ValueVec out;
  for (const std::string& name : c.scalars) {
    DIABLO_ASSIGN_OR_RETURN(Value v, run.Scalar(name));
    out.push_back(std::move(v));
  }
  for (const std::string& name : c.arrays) {
    DIABLO_ASSIGN_OR_RETURN(Value v, run.Array(name));
    out.push_back(std::move(v));
  }
  return out;
}

StatusOr<ValueVec> ReferenceOutputs(const Case& c, const Bindings& inputs) {
  DIABLO_ASSIGN_OR_RETURN(auto interp, diablo::RunReference(c.source, inputs));
  ValueVec out;
  for (const std::string& name : c.scalars) {
    DIABLO_ASSIGN_OR_RETURN(Value v, interp->GetScalar(name));
    out.push_back(std::move(v));
  }
  for (const std::string& name : c.arrays) {
    DIABLO_ASSIGN_OR_RETURN(Value v, interp->GetArray(name));
    out.push_back(std::move(v));
  }
  return out;
}

/// Empty when `got` agrees with `want` within the case's tolerance.
std::string Mismatch(const Case& c, const ValueVec& got, const ValueVec& want) {
  if (got.size() != want.size()) return "output count differs";
  for (size_t i = 0; i < got.size(); ++i) {
    const bool scalar = i < c.scalars.size();
    const std::string& name =
        scalar ? c.scalars[i] : c.arrays[i - c.scalars.size()];
    const bool same =
        scalar ? diablo::runtime::AlmostEquals(got[i], want[i], c.tolerance)
               : diablo::runtime::BagAlmostEquals(got[i], want[i],
                                                  c.tolerance);
    if (!same) return "output '" + name + "' disagrees with the reference";
  }
  return "";
}

// ------------------------------ reference ---------------------------------
//
// One file per (program, scale, seed), so workloads that share a program
// at the same scale (dist_mix and table2_iterative both run pagerank at
// 2^9) compute its reference once per seed.

std::string ReferencePath(const std::string& dir, const Case& c,
                          uint64_t seed) {
  return dir + "/" + c.name + "-" + std::to_string(c.scale) + "-" +
         std::to_string(seed) + ".ref";
}

Value ReferenceHeader(const Case& c, uint64_t seed) {
  return Value::MakeTuple({Value::MakeString(c.name), Value::MakeInt(c.scale),
                           Value::MakeInt(static_cast<int64_t>(seed))});
}

Status WriteFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::InvalidArgument("cannot write " + path);
  }
  return Status::OK();
}

/// Writes the reference outputs of every program of `w` that `dir` does
/// not hold yet. Programs are independent, so they run side by side; the
/// interpreter keeps no shared state.
int WriteReferences(const Workload& w, uint64_t seed, const std::string& dir) {
  std::vector<Case> missing;
  for (const ProgramScale& ps : w.programs) {
    Case c = MakeCase(ps);
    if (!std::ifstream(ReferencePath(dir, c, seed))) {
      missing.push_back(std::move(c));
    }
  }
  std::vector<Status> results(missing.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const size_t num_threads = std::min(missing.size(), kReferenceThreads);
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < missing.size(); i = next++) {
        const Case& c = missing[i];
        auto outputs = ReferenceOutputs(c, MakeInputs(c, seed));
        results[i] =
            outputs.ok()
                ? WriteFile(ReferencePath(dir, c, seed),
                            diablo::runtime::Serialize(Value::MakePair(
                                ReferenceHeader(c, seed),
                                Value::MakeTuple(std::move(*outputs)))))
                : outputs.status();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  int rc = 0;
  for (size_t i = 0; i < missing.size(); ++i) {
    if (!results[i].ok()) {
      std::fprintf(stderr, "perfledger: reference %s: %s\n",
                   missing[i].name.c_str(), results[i].ToString().c_str());
      rc = 1;
    }
  }
  return rc;
}

StatusOr<ValueVec> ReadReference(const Case& c, uint64_t seed,
                                 const std::string& dir) {
  const std::string path = ReferencePath(dir, c, seed);
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  if (!in) return Status::InvalidArgument("cannot read " + path);
  DIABLO_ASSIGN_OR_RETURN(Value file,
                          diablo::runtime::Deserialize(buffer.str()));
  if (!file.is_tuple() || file.tuple().size() != 2 ||
      !(file.tuple()[0] == ReferenceHeader(c, seed)) ||
      !file.tuple()[1].is_tuple()) {
    return Status::InvalidArgument(path + " is not the reference of " +
                                   c.name + " at this scale and seed");
  }
  return file.tuple()[1].tuple();
}

// ------------------------------- passes -----------------------------------

/// What one traced pass measured, summed over the workload's programs.
struct LayerSample {
  CompileTimes phases;
  int64_t target_bytes = 0;
  double ingest_s = 0;
  double driver_s = 0;
  double collect_s = 0;
  double run_wall_s = 0;
  double run_span_s = 0;
  int64_t stages = 0;
  int64_t wide_stages = 0;
  int64_t shuffle_bytes = 0;
  double sim_s = 0;
  double narrow_s = 0;
  double wide_s = 0;
  int64_t waves = 0;
  double wave_s = 0;
  double task_s = 0;
  double wave_slot_s = 0;  ///< wave time x task slots (threads or workers)
  int64_t work_units = 0;
  int64_t rows_not_materialized = 0;
  int64_t columnar_batches = 0;
  int64_t columnar_fallback_rows = 0;
  int64_t hash_agg_rows = 0;
  int64_t hash_agg_keys = 0;
  int64_t accumulator_bytes_peak = 0;
  int64_t salted_keys = 0;
  DistTotals dist;
  double child_cpu_s = 0;
};

struct PassResult {
  double seconds = 0;    ///< the pass's wall time
  double cpu_s = 0;      ///< the pass's CPU time (CpuSeconds)
  double compile_s = 0;  ///< of which inside the compile calls
  std::vector<double> program_s;      ///< the pass's wall time per program
  std::vector<double> program_cpu_s;  ///< the pass's CPU time per program
  LayerSample layers;    ///< filled by traced passes only
};

class Ledger {
 public:
  Ledger(const Workload& w, uint64_t seed, std::vector<ValueVec> reference)
      : w_(w), seed_(seed), reference_(std::move(reference)) {
    for (const ProgramScale& ps : w.programs) cases_.push_back(MakeCase(ps));
  }

  const Workload& workload() const { return w_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

  struct SetUpTime {
    double wall_s = 0;
    double cpu_s = 0;
    /// Per program: its input generation plus its warm-up run.
    std::vector<double> program_cpu_s;
  };

  /// Generates the inputs and runs one warm-up pass; returns the wall
  /// and CPU seconds this took. Inputs of an earlier set-up are freed
  /// first, outside the timed region.
  SetUpTime SetUp() {
    inputs_.clear();
    SetUpTime setup;
    const double t0 = NowSeconds();
    const double c0 = CpuSeconds();
    for (size_t i = 0; i < cases_.size(); ++i) {
      const double ci = CpuSeconds();
      inputs_.push_back(MakeInputs(cases_[i], seed_));
      setup.program_cpu_s.push_back(CpuSeconds() - ci);
    }
    double validation_wall_s = 0, validation_cpu_s = 0;
    if (w_.compile_only && verified_targets_.empty()) {
      // Validation of the compiled programs runs once and is not set-up.
      const double v0 = NowSeconds();
      const double vc0 = CpuSeconds();
      VerifyCompiledPrograms();
      validation_wall_s = NowSeconds() - v0;
      validation_cpu_s = CpuSeconds() - vc0;
    }
    const PassResult warm_up = Pass(false, w_.threads);
    for (size_t i = 0; i < cases_.size(); ++i) {
      setup.program_cpu_s[i] += warm_up.program_cpu_s[i];
    }
    setup.wall_s = NowSeconds() - t0 - validation_wall_s;
    setup.cpu_s = CpuSeconds() - c0 - validation_cpu_s;
    return setup;
  }

  /// One pass over every program, checked against the reference.
  PassResult Pass(bool traced, int threads) {
    return w_.compile_only ? CompilePass(traced) : RunPass(traced, threads);
  }

 private:
  void Fail(const std::string& what) {
    ++failed_;
    if (errors_.size() < 8) errors_.push_back(what);
  }

  /// Table 1 has no reference output of its own: each compiled program
  /// is run once on small inputs and checked against the interpreter,
  /// and every timed Compile must then reproduce that verified target.
  void VerifyCompiledPrograms() {
    for (size_t i = 0; i < cases_.size(); ++i) {
      const Case& c = cases_[i];
      ++attempted_;
      std::string error;
      auto program = diablo::Compile(c.source);
      Engine engine;
      if (!program.ok()) {
        error = program.status().ToString();
      } else if (auto run = diablo::Run(*program, &engine, inputs_[i]);
                 !run.ok()) {
        error = run.status().ToString();
      } else if (auto outputs = CollectOutputs(*run, c); !outputs.ok()) {
        error = outputs.status().ToString();
      } else {
        error = Mismatch(c, *outputs, reference_[i]);
      }
      if (!error.empty()) Fail(c.name + ": " + error);
      verified_targets_.push_back(program.ok() ? program->TargetToString()
                                               : std::string());
    }
  }

  PassResult CompilePass(bool traced) {
    PassResult result;
    std::vector<StatusOr<CompiledProgram>> programs;
    programs.reserve(cases_.size());
    for (const Case& c : cases_) {
      const double t0 = NowSeconds();
      const double c0 = CpuSeconds();
      programs.push_back(traced ? CompileByPhase(c.source,
                                                 &result.layers.phases)
                                : diablo::Compile(c.source));
      result.program_cpu_s.push_back(CpuSeconds() - c0);
      result.cpu_s += result.program_cpu_s.back();
      result.program_s.push_back(NowSeconds() - t0);
      result.seconds += result.program_s.back();
    }
    result.compile_s = result.seconds;
    for (size_t i = 0; i < cases_.size(); ++i) {
      ++attempted_;
      if (!programs[i].ok()) {
        Fail(cases_[i].name + ": " + programs[i].status().ToString());
        continue;
      }
      const std::string target = programs[i]->TargetToString();
      if (traced) result.layers.target_bytes += target.size();
      if (target != verified_targets_[i]) {
        Fail(cases_[i].name + ": compiled target differs from the verified "
                              "one");
      }
    }
    return result;
  }

  PassResult RunPass(bool traced, int threads) {
    PassResult result;
    LayerSample& ls = result.layers;
    const ChildUsage children_before = ReadChildUsage();
    for (size_t i = 0; i < cases_.size(); ++i) {
      const Case& c = cases_[i];
      EngineConfig config;
      config.num_partitions = w_.partitions;
      config.host_threads = threads;
      config.tracing = traced;

      const double t0 = NowSeconds();
      const double cpu0 = CpuSeconds();
      std::unique_ptr<diablo::dist::Coordinator> coordinator;
      std::unique_ptr<TimedRemote> timed;
      if (w_.dist_workers > 0) {
        diablo::dist::DistConfig dist;
        dist.num_workers = w_.dist_workers;
        coordinator = std::make_unique<diablo::dist::Coordinator>(dist);
        config.remote = coordinator.get();
        if (traced) {
          timed = std::make_unique<TimedRemote>(coordinator.get());
          config.remote = timed.get();
        }
      }
      auto engine = std::make_unique<Engine>(config);
      const double c0 = NowSeconds();
      StatusOr<CompiledProgram> program =
          traced ? CompileByPhase(c.source, &ls.phases)
                 : diablo::Compile(c.source);
      result.compile_s += NowSeconds() - c0;
      Status status = program.status();
      std::optional<ProgramRun> run;
      ValueVec outputs;
      double run_wall_s = 0;
      double collect_s = 0;
      if (status.ok()) {
        const double r0 = NowSeconds();
        auto ran = diablo::Run(*program, engine.get(), inputs_[i]);
        run_wall_s = NowSeconds() - r0;
        if (ran.ok()) {
          run.emplace(std::move(*ran));
          const double k0 = NowSeconds();
          auto collected = CollectOutputs(*run, c);
          collect_s = NowSeconds() - k0;
          if (collected.ok()) {
            outputs = std::move(*collected);
          } else {
            status = collected.status();
          }
        } else {
          status = ran.status();
        }
      }
      const double t1 = NowSeconds();
      const double cpu1 = CpuSeconds();
      if (traced && status.ok()) {
        Inspect(*engine, config, run_wall_s, collect_s, &ls);
        if (timed != nullptr) Add(timed->totals(), &ls.dist);
        ls.target_bytes += program->TargetToString().size();
      }
      const double t2 = NowSeconds();
      const double cpu2 = CpuSeconds();
      run.reset();
      engine.reset();
      timed.reset();
      coordinator.reset();
      result.program_cpu_s.push_back((cpu1 - cpu0) + (CpuSeconds() - cpu2));
      result.cpu_s += result.program_cpu_s.back();
      result.program_s.push_back((t1 - t0) + (NowSeconds() - t2));
      result.seconds += result.program_s.back();

      ++attempted_;
      const std::string error =
          status.ok() ? Mismatch(c, outputs, reference_[i])
                      : status.ToString();
      if (!error.empty()) Fail(c.name + ": " + error);
    }
    if (traced) {
      ls.child_cpu_s = ReadChildUsage().cpu_s - children_before.cpu_s;
    }
    return result;
  }

  void Inspect(const Engine& engine, const EngineConfig& config,
               double run_wall_s, double collect_s, LayerSample* ls) const {
    const auto& m = engine.metrics();
    const SpanTotals spans = SumSpans(engine.trace()->Snapshot(), m);
    ls->ingest_s += spans.run_s - spans.statement_s;
    ls->driver_s += spans.statement_s - spans.statement_stage_s;
    ls->collect_s += collect_s;
    ls->run_wall_s += run_wall_s;
    ls->run_span_s += spans.run_s;
    ls->stages += m.num_stages();
    ls->wide_stages += m.num_wide_stages();
    ls->shuffle_bytes += m.total_shuffle_bytes();
    ls->sim_s += m.SimulatedSeconds(config.cluster);
    ls->narrow_s += spans.narrow_s;
    ls->wide_s += spans.wide_s;
    ls->waves += spans.waves;
    ls->wave_s += spans.wave_s;
    ls->task_s += spans.task_s;
    const int slots =
        w_.dist_workers > 0 ? w_.dist_workers : config.host_threads;
    ls->wave_slot_s += spans.wave_s * slots;
    ls->work_units += m.total_work();
    ls->rows_not_materialized += m.total_rows_not_materialized();
    ls->columnar_batches += m.total_columnar_batches();
    ls->columnar_fallback_rows += m.total_columnar_rows_fallback();
    ls->hash_agg_rows += m.total_hash_agg_rows();
    ls->hash_agg_keys += m.total_hash_agg_keys();
    ls->accumulator_bytes_peak =
        std::max(ls->accumulator_bytes_peak, m.max_accumulator_bytes_peak());
    ls->salted_keys += m.total_salted_keys();
  }

  static void Add(const DistTotals& from, DistTotals* to) {
    to->waves += from.waves;
    to->busy_s += from.busy_s;
    to->tasks += from.tasks;
    to->retries += from.retries;
    to->workers_lost += from.workers_lost;
    to->result_bytes += from.result_bytes;
  }

  const Workload& w_;
  const uint64_t seed_;
  const std::vector<ValueVec> reference_;
  std::vector<Case> cases_;
  std::vector<Bindings> inputs_;
  std::vector<std::string> verified_targets_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// ------------------------------- report -----------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <typename Fn>
double MedianOf(const std::vector<PassResult>& passes, Fn field) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(field(p));
  return Median(std::move(v));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Json(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " + Json(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

std::string MetaJson(const Workload& w, uint64_t seed, int seconds,
                     bool trace) {
  std::string programs = "[";
  for (size_t i = 0; i < w.programs.size(); ++i) {
    if (i > 0) programs += ", ";
    programs += "[" + Json(w.programs[i].program) + ", " +
                std::to_string(w.programs[i].scale) + "]";
  }
  programs += "]";
  return "{\"workload\": " + Json(w.name) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"seconds\": " + std::to_string(seconds) +
         ", \"trace\": " + (trace ? "1" : "0") +
         ", \"num_cpus\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"threads\": " + std::to_string(w.threads) +
         ", \"partitions\": " + std::to_string(w.partitions) +
         ", \"dist_workers\": " + std::to_string(w.dist_workers) +
         ", \"pagerank_steps\": " + std::to_string(kPageRankSteps) +
         ", \"programs\": " + programs +
         ", \"build_type\": " + Json(PERFLEDGER_BUILD_TYPE) +
         ", \"compiler\": " + Json(PERFLEDGER_COMPILER) + "}";
}

/// The q-quantile of `v`, interpolating between neighbouring ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Describe(const char* what, const std::vector<double>& v,
              const char* unit) {
  if (v.empty()) return;
  std::printf("  %-28s median %.6g %s over %zu samples (min %.6g, p10 %.6g, "
              "p90 %.6g, max %.6g)\n",
              what, Median(v), unit, v.size(),
              *std::min_element(v.begin(), v.end()), Quantile(v, 0.1),
              Quantile(v, 0.9), *std::max_element(v.begin(), v.end()));
}

std::vector<double> Seconds(const std::vector<PassResult>& passes) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(p.seconds);
  return v;
}

std::vector<double> CpuTimes(const std::vector<PassResult>& passes) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(p.cpu_s);
  return v;
}

/// Adds each sample's per-program CPU seconds to `by_program`, which
/// is indexed [program][sample].
void AddProgramCpu(const std::vector<double>& program_cpu_s,
                   std::vector<std::vector<double>>* by_program) {
  by_program->resize(program_cpu_s.size());
  for (size_t i = 0; i < program_cpu_s.size(); ++i) {
    (*by_program)[i].push_back(program_cpu_s[i]);
  }
}

/// Sum over programs of each program's least sample.
double SumOfLeast(const std::vector<std::vector<double>>& by_program) {
  double sum = 0;
  for (const std::vector<double>& v : by_program) {
    sum += *std::min_element(v.begin(), v.end());
  }
  return sum;
}

/// End-to-end metrics: set-ups and untraced passes, within `seconds` of
/// wall time in all. The set-ups alternate with equal slices of timed
/// passes, so both spread over the whole run; a cheap set-up repeats
/// within its round.
///
/// The gated times are CPU seconds (CpuSeconds) at their least
/// disturbed: for a set-up and for a pass, the sum over the workload's
/// programs of each program's least CPU time among the run's set-ups or
/// passes. On a shared host, other tenants' load stretches the wall time
/// of a pass (the host deschedules our CPUs) and, for tens of seconds at
/// a time, its CPU time too (they share our memory system), by far more
/// than any bound a change could be held to; a run's medians move with
/// it. A quiet stretch as long as one program run comes far more often
/// than one as long as a whole pass, so the per-program least reads the
/// same from run to run. Medians, quantiles and wall times are printed
/// beside them.
std::vector<Metric> EndToEnd(Ledger& ledger, int seconds) {
  constexpr int kRounds = 3;
  constexpr double kSetUpRoundS = 0.3;
  constexpr int kMaxSetUpsPerRound = 64;

  std::vector<double> setup_wall, setup_cpu;
  std::vector<std::vector<double>> setup_program_cpu;
  std::vector<PassResult> passes;
  const double start = NowSeconds();
  for (int round = 0; round < kRounds; ++round) {
    const double s0 = NowSeconds();
    for (int n = 0; n == 0 || (NowSeconds() - s0 < kSetUpRoundS &&
                               n < kMaxSetUpsPerRound);
         ++n) {
      const Ledger::SetUpTime setup = ledger.SetUp();
      setup_wall.push_back(setup.wall_s);
      setup_cpu.push_back(setup.cpu_s);
      AddProgramCpu(setup.program_cpu_s, &setup_program_cpu);
    }
    const double round_end =
        start + static_cast<double>(seconds) * (round + 1) / kRounds;
    do {
      passes.push_back(ledger.Pass(false, ledger.workload().threads));
    } while (NowSeconds() < round_end);
  }

  Describe("setup CPU", setup_cpu, "s");
  Describe("setup wall", setup_wall, "s");
  Describe("pass CPU", CpuTimes(passes), "s");
  Describe("pass wall", Seconds(passes), "s");
  const Workload& w = ledger.workload();
  std::vector<std::vector<double>> program_cpu;
  for (const PassResult& p : passes) {
    AddProgramCpu(p.program_cpu_s, &program_cpu);
  }
  for (size_t i = 0; i < program_cpu.size(); ++i) {
    Describe(("  " + w.programs[i].program + " CPU").c_str(), program_cpu[i],
             "s");
  }
  const double setup_s = SumOfLeast(setup_program_cpu);
  const double job_cpu_s = SumOfLeast(program_cpu);
  std::printf("  setup_s %.6g s, job_cpu_s %.6g s (sums of the programs' "
              "least CPU seconds)\n",
              setup_s, job_cpu_s);
  return {{"setup_s", setup_s, "s"},
          {"job_cpu_s", job_cpu_s, "s"},
          {"peak_rss_mb", PeakRssMb(), "MB"}};
}

/// Per-layer metrics: untraced and traced passes interleaved, so the
/// overhead ratio compares passes run under the same host conditions.
std::vector<Metric> PerLayer(Ledger& ledger, int seconds) {
  constexpr int kMinRounds = 2;
  const Workload& w = ledger.workload();
  ledger.SetUp();

  std::vector<PassResult> untraced, traced, traced_1t;
  const double t0 = NowSeconds();
  for (int round = 0;
       round < kMinRounds || NowSeconds() - t0 < seconds; ++round) {
    // Alternate which side goes first so neither always runs warm.
    if (round % 2 == 0) untraced.push_back(ledger.Pass(false, w.threads));
    traced.push_back(ledger.Pass(true, w.threads));
    if (round % 2 == 1) untraced.push_back(ledger.Pass(false, w.threads));
    if (w.scaling) traced_1t.push_back(ledger.Pass(true, 1));
  }
  Describe("job_s untraced", Seconds(untraced), "s");
  Describe("job_s traced", Seconds(traced), "s");
  Describe("job_s traced, 1 thread", Seconds(traced_1t), "s");

  const auto med = [&](auto field) { return MedianOf(traced, field); };
  const double untraced_compile_s =
      MedianOf(untraced, [](const PassResult& p) { return p.compile_s; });
  const double phased_compile_s = med([](const PassResult& p) {
    return p.layers.phases.TotalMs() / 1e3;
  });
  const double traced_job_s = Median(Seconds(traced));
  const double mb = 1024.0 * 1024.0;

  return {
      {"parser.parse_ms",
       med([](const PassResult& p) { return p.layers.phases.parse_ms; }),
       "ms"},
      {"analysis.check_ms",
       med([](const PassResult& p) { return p.layers.phases.check_ms; }),
       "ms"},
      {"translate.translate_ms",
       med([](const PassResult& p) { return p.layers.phases.translate_ms; }),
       "ms"},
      {"normalize.normalize_ms",
       med([](const PassResult& p) { return p.layers.phases.normalize_ms; }),
       "ms"},
      {"opt.optimize_ms",
       med([](const PassResult& p) { return p.layers.phases.optimize_ms; }),
       "ms"},
      {"opt.target_bytes",
       med([](const PassResult& p) { return double(p.layers.target_bytes); }),
       "bytes"},
      {"compile.unattributed_ratio",
       Ratio(untraced_compile_s - phased_compile_s, untraced_compile_s),
       "ratio"},
      {"exec.ingest_s",
       med([](const PassResult& p) { return p.layers.ingest_s; }), "s"},
      {"exec.driver_s",
       med([](const PassResult& p) { return p.layers.driver_s; }), "s"},
      {"exec.collect_s",
       med([](const PassResult& p) { return p.layers.collect_s; }), "s"},
      {"exec.unattributed_ratio", med([](const PassResult& p) {
         return Ratio(p.layers.run_wall_s - p.layers.run_span_s,
                      p.layers.run_wall_s);
       }),
       "ratio"},
      {"plan.stages",
       med([](const PassResult& p) { return double(p.layers.stages); }),
       "count"},
      {"plan.wide_stages",
       med([](const PassResult& p) { return double(p.layers.wide_stages); }),
       "count"},
      {"plan.shuffle_mb", med([&](const PassResult& p) {
         return double(p.layers.shuffle_bytes) / mb;
       }),
       "MB"},
      {"plan.sim_s", med([](const PassResult& p) { return p.layers.sim_s; }),
       "s"},
      {"runtime.narrow_s",
       med([](const PassResult& p) { return p.layers.narrow_s; }), "s"},
      {"runtime.wide_s",
       med([](const PassResult& p) { return p.layers.wide_s; }), "s"},
      {"runtime.waves",
       med([](const PassResult& p) { return double(p.layers.waves); }),
       "count"},
      {"runtime.wave_ms", med([](const PassResult& p) {
         return Ratio(p.layers.wave_s * 1e3, double(p.layers.waves));
       }),
       "ms"},
      {"runtime.task_busy_ratio", med([](const PassResult& p) {
         return Ratio(p.layers.task_s, p.layers.wave_slot_s);
       }),
       "ratio"},
      {"runtime.scaling_4t",
       w.scaling ? Ratio(Median(Seconds(traced_1t)), traced_job_s) : 0,
       "ratio"},
      {"runtime.work_units",
       med([](const PassResult& p) { return double(p.layers.work_units); }),
       "count"},
      {"runtime.rows_not_materialized", med([](const PassResult& p) {
         return double(p.layers.rows_not_materialized);
       }),
       "count"},
      {"runtime.columnar_batches", med([](const PassResult& p) {
         return double(p.layers.columnar_batches);
       }),
       "count"},
      {"runtime.columnar_fallback_rows", med([](const PassResult& p) {
         return double(p.layers.columnar_fallback_rows);
       }),
       "count"},
      {"runtime.hash_agg_rows",
       med([](const PassResult& p) { return double(p.layers.hash_agg_rows); }),
       "count"},
      {"runtime.hash_agg_keys",
       med([](const PassResult& p) { return double(p.layers.hash_agg_keys); }),
       "count"},
      {"runtime.accumulator_mb_peak", med([&](const PassResult& p) {
         return double(p.layers.accumulator_bytes_peak) / mb;
       }),
       "MB"},
      {"runtime.salted_keys",
       med([](const PassResult& p) { return double(p.layers.salted_keys); }),
       "count"},
      {"dist.waves",
       med([](const PassResult& p) { return double(p.layers.dist.waves); }),
       "count"},
      {"dist.wave_ms", med([](const PassResult& p) {
         return Ratio(p.layers.dist.busy_s * 1e3, double(p.layers.dist.waves));
       }),
       "ms"},
      {"dist.busy_s",
       med([](const PassResult& p) { return p.layers.dist.busy_s; }), "s"},
      {"dist.tasks",
       med([](const PassResult& p) { return double(p.layers.dist.tasks); }),
       "count"},
      {"dist.retries",
       med([](const PassResult& p) { return double(p.layers.dist.retries); }),
       "count"},
      {"dist.workers_lost", med([](const PassResult& p) {
         return double(p.layers.dist.workers_lost);
       }),
       "count"},
      {"dist.result_mb", med([&](const PassResult& p) {
         return double(p.layers.dist.result_bytes) / mb;
       }),
       "MB"},
      // The dist workers are the only child processes.
      {"dist.child_cpu_s",
       med([](const PassResult& p) { return p.layers.child_cpu_s; }), "s"},
      {"dist.worker_rss_mb", ReadChildUsage().max_rss_mb, "MB"},
      {"trace.overhead_ratio",
       Ratio(traced_job_s, Median(Seconds(untraced))), "ratio"},
  };
}

// -------------------------------- main ------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  int trace = 0;
  std::string reference_dir;
  std::string record;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--reference-dir") {
      args->reference_dir = value;
    } else if (flag == "--record") {
      args->record = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 0 && !args->workload.empty() &&
         !args->reference_dir.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfledger reference --workload W --seed N "
                 "--reference-dir D\n"
                 "       perfledger measure --workload W --seed N --seconds T "
                 "--trace 0|1 --reference-dir D [--record OUT]\n");
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfledger: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.mode == "reference") {
    return WriteReferences(*w, args.seed, args.reference_dir);
  }
  if (args.mode != "measure" || args.seconds < 1 ||
      (args.trace != 0 && args.trace != 1)) {
    std::fprintf(stderr, "perfledger: bad measure arguments\n");
    return 2;
  }

  std::vector<ValueVec> reference;
  for (const ProgramScale& ps : w->programs) {
    auto outputs = ReadReference(MakeCase(ps), args.seed, args.reference_dir);
    if (!outputs.ok()) {
      std::fprintf(stderr, "perfledger: %s\n",
                   outputs.status().ToString().c_str());
      return 1;
    }
    reference.push_back(std::move(*outputs));
  }
  const std::string meta = MetaJson(*w, args.seed, args.seconds,
                                    args.trace == 1);
  std::printf("meta %s\n", meta.c_str());
  std::fflush(stdout);

  Ledger ledger(*w, args.seed, std::move(reference));
  const std::vector<Metric> metrics = args.trace == 1
                                          ? PerLayer(ledger, args.seconds)
                                          : EndToEnd(ledger, args.seconds);
  for (const std::string& error : ledger.errors()) {
    std::printf("  FAILED %s\n", error.c_str());
  }
  std::printf("  error_rate = %.6g (%" PRId64 " of %" PRId64
              " checked program runs failed)\n",
              Ratio(double(ledger.failed()), double(ledger.attempted())),
              ledger.failed(), ledger.attempted());
  const std::string result =
      std::string("{\"correct\": ") +
      (ledger.failed() == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(ledger.attempted()) +
      ", \"failed\": " + std::to_string(ledger.failed()) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";
  if (!args.record.empty()) {
    std::ofstream record(args.record, std::ios::trunc);
    record << "{\"meta\": " << meta << ", \"result\": " << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfledger

int main(int argc, char** argv) { return perfledger::Main(argc, argv); }
