// Per-layer measurement seams of the ledger. Everything here reads the
// program from outside: timers around public calls, the engine's own
// trace spans and Metrics, a timing wrapper around the dist backend, and
// getrusage. The program itself gets no new instrumentation.
#ifndef PERFLEDGER_LAYERS_H_
#define PERFLEDGER_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "diablo/diablo.h"
#include "runtime/metrics.h"
#include "runtime/remote.h"
#include "runtime/trace.h"

namespace perfledger {

/// Monotonic wall clock in seconds.
double NowSeconds();

/// CPU seconds of this process (every thread) plus its reaped children.
/// Under a hypervisor that accounts steal time, time a virtual CPU spends
/// descheduled on its host is not counted, so the figure does not move
/// with the load other tenants put on the host.
double CpuSeconds();

/// Milliseconds spent in each compile phase, summed over programs.
struct CompileTimes {
  double parse_ms = 0;
  double check_ms = 0;  ///< CanonicalizeIncrements + CheckRestrictions
  double translate_ms = 0;
  double normalize_ms = 0;
  double optimize_ms = 0;

  double TotalMs() const {
    return parse_ms + check_ms + translate_ms + normalize_ms + optimize_ms;
  }
};

/// Compiles `source` through the same public phase calls, in the same
/// order and with the same default options, as diablo::Compile, timing
/// each phase into `times`.
diablo::StatusOr<diablo::CompiledProgram> CompileByPhase(
    const std::string& source, CompileTimes* times);

/// Totals over the engine's trace spans of one run. A span counts once:
/// nested statement or stage spans are covered by their outermost one.
struct SpanTotals {
  double run_s = 0;        ///< run spans
  double statement_s = 0;  ///< outermost statement spans
  /// Outermost stage spans that sit under a statement span.
  double statement_stage_s = 0;
  /// Outermost stage spans split by StageStats::wide.
  double narrow_s = 0;
  double wide_s = 0;
  int64_t waves = 0;
  double wave_s = 0;
  double task_s = 0;
};
SpanTotals SumSpans(const std::vector<diablo::runtime::TraceSpan>& spans,
                    const diablo::runtime::Metrics& metrics);

/// Counters of the dist backend's waves, as seen by TimedRemote.
struct DistTotals {
  int64_t waves = 0;
  double busy_s = 0;
  int64_t tasks = 0;
  int64_t retries = 0;
  int64_t workers_lost = 0;
  int64_t result_bytes = 0;
};

/// Times every wave the engine hands to the wrapped backend and sums
/// the backend's RemoteWaveStats.
class TimedRemote : public diablo::runtime::RemoteExecutor {
 public:
  explicit TimedRemote(diablo::runtime::RemoteExecutor* inner)
      : inner_(inner) {}

  diablo::Status RunWave(const diablo::runtime::RemoteTaskWave& wave,
                         diablo::runtime::RemoteWaveStats* stats) override;

  const DistTotals& totals() const { return totals_; }

 private:
  diablo::runtime::RemoteExecutor* inner_;
  DistTotals totals_;
};

/// getrusage(RUSAGE_CHILDREN): CPU seconds of reaped child processes and
/// the largest peak RSS among them.
struct ChildUsage {
  double cpu_s = 0;
  double max_rss_mb = 0;
};
ChildUsage ReadChildUsage();

/// Peak RSS of this process in MB (getrusage(RUSAGE_SELF)).
double PeakRssMb();

}  // namespace perfledger

#endif  // PERFLEDGER_LAYERS_H_
