#include "layers.h"

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <unordered_map>

#include "analysis/restrictions.h"
#include "normalize/normalize.h"
#include "parser/parser.h"

namespace perfledger {

using diablo::runtime::SpanKind;
using diablo::runtime::TraceSpan;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec self{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &self);
  return static_cast<double>(self.tv_sec) +
         static_cast<double>(self.tv_nsec) * 1e-9 + ReadChildUsage().cpu_s;
}

diablo::StatusOr<diablo::CompiledProgram> CompileByPhase(
    const std::string& source, CompileTimes* times) {
  const diablo::CompileOptions options;
  double t = NowSeconds();
  auto lap_ms = [&t] {
    const double now = NowSeconds();
    const double ms = (now - t) * 1e3;
    t = now;
    return ms;
  };

  DIABLO_ASSIGN_OR_RETURN(diablo::ast::Program parsed,
                          diablo::parser::ParseProgram(source));
  times->parse_ms += lap_ms();

  diablo::CompiledProgram out;
  out.source = diablo::analysis::CanonicalizeIncrements(parsed);
  DIABLO_RETURN_IF_ERROR(diablo::analysis::CheckRestrictions(out.source));
  times->check_ms += lap_ms();

  DIABLO_ASSIGN_OR_RETURN(diablo::translate::TranslationResult translated,
                          diablo::translate::Translate(out.source));
  times->translate_ms += lap_ms();

  out.vars = std::move(translated.vars);
  diablo::comp::NameGen names("n");
  diablo::comp::TargetProgram normalized =
      diablo::normalize::NormalizeTarget(translated.program, &names);
  times->normalize_ms += lap_ms();

  out.target = diablo::opt::OptimizeTarget(normalized, &names,
                                           options.optimize);
  times->optimize_ms += lap_ms();
  return out;
}

SpanTotals SumSpans(const std::vector<TraceSpan>& spans,
                    const diablo::runtime::Metrics& metrics) {
  std::unordered_map<int64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  auto has_ancestor = [&](const TraceSpan& span, SpanKind kind) {
    for (int64_t p = span.parent; p >= 0;) {
      auto it = index.find(p);
      if (it == index.end()) return false;
      const TraceSpan& parent = spans[it->second];
      if (parent.kind == kind) return true;
      p = parent.parent;
    }
    return false;
  };

  SpanTotals totals;
  const auto& stages = metrics.stages();
  for (const TraceSpan& span : spans) {
    const double s = span.dur_us * 1e-6;
    switch (span.kind) {
      case SpanKind::kRun:
        totals.run_s += s;
        break;
      case SpanKind::kStatement:
        if (!has_ancestor(span, SpanKind::kStatement)) totals.statement_s += s;
        break;
      case SpanKind::kStage: {
        if (has_ancestor(span, SpanKind::kStage)) break;
        if (has_ancestor(span, SpanKind::kStatement)) {
          totals.statement_stage_s += s;
        }
        const int m = span.metrics_index;
        const bool wide = m >= 0 && m < static_cast<int>(stages.size()) &&
                          stages[static_cast<size_t>(m)].wide;
        (wide ? totals.wide_s : totals.narrow_s) += s;
        break;
      }
      case SpanKind::kWave:
        ++totals.waves;
        totals.wave_s += s;
        break;
      case SpanKind::kTask:
        totals.task_s += s;
        break;
      case SpanKind::kRecovery:
        break;
    }
  }
  return totals;
}

diablo::Status TimedRemote::RunWave(
    const diablo::runtime::RemoteTaskWave& wave,
    diablo::runtime::RemoteWaveStats* stats) {
  const diablo::runtime::RemoteWaveStats before = *stats;
  const double t0 = NowSeconds();
  diablo::Status status = inner_->RunWave(wave, stats);
  totals_.busy_s += NowSeconds() - t0;
  ++totals_.waves;
  totals_.tasks += stats->tasks - before.tasks;
  totals_.retries += stats->real_retries - before.real_retries;
  totals_.workers_lost += stats->workers_lost - before.workers_lost;
  totals_.result_bytes += stats->result_bytes - before.result_bytes;
  return status;
}

namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

ChildUsage ReadChildUsage() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return {Seconds(usage.ru_utime) + Seconds(usage.ru_stime),
          static_cast<double>(usage.ru_maxrss) / 1024.0};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfledger
