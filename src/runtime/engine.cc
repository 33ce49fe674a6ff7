#include "runtime/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/strings.h"
#include "runtime/metrics_registry.h"
#include "runtime/remote.h"
#include "runtime/serialize.h"
#include "runtime/worker_pool.h"

namespace diablo::runtime {

namespace {

/// Payload of a Distinct accumulator entry: key presence is the datum.
struct NoPayload {};

/// Drains a hash accumulator into one output partition: entries sorted
/// by key, each turned into a row by `make_row`.
template <typename Payload, typename MakeRow>
ValueVec SortedRows(KeyedAccumulator<Payload>* acc, MakeRow make_row) {
  acc->SortByKey();
  ValueVec out;
  out.reserve(acc->size());
  for (auto& e : acc->entries()) out.push_back(make_row(e));
  return out;
}

// The per-destination steps of the wide operators. Each turns one
// destination's post-shuffle rows into its output rows, and both the
// forward task and the lineage rebuild (Engine::WideLineage) call the
// same function, so a rebuilt partition is byte-identical to the
// original. `accumulator_bytes` (nullable) receives the accumulator's
// footprint for the stage's accumulator_bytes_peak.

/// GroupByKey: groups rows [lo, hi) of `part` (a skew chunk, or all of
/// it), values in arrival order, into (key, Bag) rows in key order.
ValueVec GroupedRows(const HashedVec& part, size_t lo, size_t hi,
                     int64_t* accumulator_bytes) {
  KeyedAccumulator<ValueVec> groups(hi - lo);
  for (size_t i = lo; i < hi; ++i) {
    const ValueVec& kv = part[i].row.tuple();
    groups.FindOrCreate(part[i].hash, kv[0]).payload.push_back(kv[1]);
  }
  if (accumulator_bytes != nullptr) {
    *accumulator_bytes = static_cast<int64_t>(groups.MemoryBytes());
  }
  return SortedRows(&groups, [](auto& e) {
    return Value::MakePair(std::move(e.key),
                           Value::MakeBag(std::move(e.payload)));
  });
}

/// ReduceByKey's boxed fold of one (key, value) into `acc`: the first
/// value of a key seeds it, later ones fold in arrival order.
Status FoldValue(KeyedAccumulator<Value>* acc, const Engine::ReduceFn& fn,
                 size_t hash, const Value& key, const Value& value) {
  auto ref = acc->FindOrCreate(hash, key);
  if (ref.inserted) {
    ref.payload = value;
  } else {
    DIABLO_ASSIGN_OR_RETURN(ref.payload, fn(ref.payload, value));
  }
  return Status::OK();
}

/// FoldValue over rows[from..] of hashed (key, value) rows.
Status FoldRows(const HashedVec& rows, size_t from,
                const Engine::ReduceFn& fn,
                KeyedAccumulator<Value>* acc) {
  for (size_t i = from; i < rows.size(); ++i) {
    const ValueVec& kv = rows[i].row.tuple();
    DIABLO_RETURN_IF_ERROR(FoldValue(acc, fn, rows[i].hash, kv[0], kv[1]));
  }
  return Status::OK();
}

/// The boxed map-side combine's output: the folded (key, value) pairs
/// in key order, each carrying its key hash into the shuffle.
HashedVec CombinedRows(KeyedAccumulator<Value>* acc) {
  acc->SortByKey();
  HashedVec out;
  out.reserve(acc->size());
  for (auto& e : acc->entries()) {
    out.push_back(HashedRow{
        e.hash, Value::MakePair(std::move(e.key), std::move(e.payload))});
  }
  return out;
}

/// ReduceByKey's reduce side: (key, folded value) rows in key order.
ValueVec ReducedRows(KeyedAccumulator<Value>* acc) {
  return SortedRows(acc, [](auto& e) {
    return Value::MakePair(std::move(e.key), std::move(e.payload));
  });
}

/// Join: builds from the left rows and probes with the right rows, both
/// in arrival order. The output is in probe order, so it needs no sort.
ValueVec JoinedRows(const HashedVec& ls, const HashedVec& rs) {
  KeyedAccumulator<ValueVec> build(ls.size());
  for (const HashedRow& hr : ls) {
    const ValueVec& kv = hr.row.tuple();
    build.FindOrCreate(hr.hash, kv[0]).payload.push_back(kv[1]);
  }
  ValueVec out;
  for (const HashedRow& hr : rs) {
    const ValueVec& kv = hr.row.tuple();
    const ValueVec* lvs = build.Find(hr.hash, kv[0]);
    if (lvs == nullptr) continue;
    for (const Value& lv : *lvs) {
      out.push_back(Value::MakePair(kv[0], Value::MakePair(lv, kv[1])));
    }
  }
  return out;
}

/// CoGroup: (key, (Bag-of-left, Bag-of-right)) rows in key order.
ValueVec CoGroupedRows(const HashedVec& ls, const HashedVec& rs) {
  KeyedAccumulator<std::pair<ValueVec, ValueVec>> groups(ls.size() +
                                                         rs.size());
  for (const HashedRow& hr : ls) {
    const ValueVec& kv = hr.row.tuple();
    groups.FindOrCreate(hr.hash, kv[0]).payload.first.push_back(kv[1]);
  }
  for (const HashedRow& hr : rs) {
    const ValueVec& kv = hr.row.tuple();
    groups.FindOrCreate(hr.hash, kv[0]).payload.second.push_back(kv[1]);
  }
  return SortedRows(&groups, [](auto& e) {
    return Value::MakePair(
        std::move(e.key),
        Value::MakePair(Value::MakeBag(std::move(e.payload.first)),
                        Value::MakeBag(std::move(e.payload.second))));
  });
}

/// Distinct: the distinct keys of (row, unit) pairs, in order.
ValueVec DistinctRows(const HashedVec& part) {
  KeyedAccumulator<NoPayload> seen(part.size());
  for (const HashedRow& hr : part) {
    seen.FindOrCreate(hr.hash, hr.row.tuple()[0]);
  }
  return SortedRows(&seen, [](auto& e) { return std::move(e.key); });
}

/// Rows per partition (ValueVec, HashedVec or TypedRows partitions).
template <typename Part>
std::vector<int64_t> RowCounts(const std::vector<Part>& parts) {
  std::vector<int64_t> counts;
  counts.reserve(parts.size());
  for (const Part& p : parts) counts.push_back(static_cast<int64_t>(p.size()));
  return counts;
}

std::vector<int64_t> RowCounts(const Dataset& ds) {
  return RowCounts(ds.partitions());
}

/// A narrow stage's stats: `map_work` per task, nothing shuffled.
StageStats NarrowStats(std::string label, std::vector<int64_t> map_work) {
  StageStats stats;
  stats.label = std::move(label);
  stats.map_work = std::move(map_work);
  return stats;
}

/// Emits one task_retry event for partition `p` (no-op without a log),
/// with `key` = `value` naming the failed attempt or the lost worker.
/// EventLog::Emit locks, so wave threads may call it concurrently.
void EmitTaskRetry(EventLog* events, int stage, int p, const char* key,
                   int64_t value, const char* reason) {
  if (events == nullptr) return;
  Event e;
  e.name = "task_retry";
  e.stage_id = stage;
  e.ints.emplace_back("partition", p);
  e.ints.emplace_back(key, value);
  e.strs.emplace_back("reason", reason);
  events->Emit(std::move(e));
}

/// The error of a task whose every attempt failed, identical for the
/// local and the remote scheduler.
Status RetryBudgetExhausted(const std::string& label, int stage, int p,
                            int budget) {
  return Status::RuntimeError(StrCat("stage #", stage, " '", label,
                                     "': partition ", p, " failed after ",
                                     budget, " attempts; retry budget (",
                                     budget, ") exhausted"));
}

/// A shuffle wave's byte accounting: `*shuffle_bytes` (nullable) is set
/// to the bytes every source task moved, and the bytes each of the
/// `out_parts` destinations received, bucket_bytes[src][dst], are ADDED
/// to `*dest_bytes` (nullable; grown to out_parts entries).
void TallyShuffleBytes(const std::vector<int64_t>& moved_bytes,
                       const std::vector<std::vector<int64_t>>& bucket_bytes,
                       int out_parts, int64_t* shuffle_bytes,
                       std::vector<int64_t>* dest_bytes) {
  if (shuffle_bytes != nullptr) {
    *shuffle_bytes = 0;
    for (int64_t b : moved_bytes) *shuffle_bytes += b;
  }
  if (dest_bytes == nullptr) return;
  if (dest_bytes->size() < static_cast<size_t>(out_parts)) {
    dest_bytes->resize(static_cast<size_t>(out_parts), 0);
  }
  for (const std::vector<int64_t>& per_dst : bucket_bytes) {
    for (int dst = 0; dst < out_parts; ++dst) {
      (*dest_bytes)[dst] += per_dst[dst];
    }
  }
}

/// Simulated scheduler backoff charged before retrying after `attempt`
/// failed: base * 2^attempt, with the exponent capped so the charge can
/// never overflow to infinity on absurd budgets.
double RetryBackoff(const FaultConfig& fc, int attempt) {
  return fc.retry_backoff_seconds * std::ldexp(1.0, std::min(attempt, 16));
}

/// Worker clock offsets below this are treated as zero when splicing
/// worker telemetry spans into the driver trace: forked workers share
/// the driver's CLOCK_MONOTONIC, so the Hello-measured offset is pure
/// scheduling noise, and collapsing it keeps worker spans nested inside
/// their dispatch window. Larger offsets (a worker with a genuinely
/// different clock base) are applied; the measured value is recorded on
/// the span either way.
constexpr double kClockAlignThresholdUs = 10'000.0;

int HashDestination(size_t hash, int out_parts) {
  return static_cast<int>(hash % static_cast<size_t>(out_parts));
}

/// The sub-task layout of one salted wave (SkewConfig). Original task p
/// becomes fanout[p] virtual tasks; virtual task t works on sub-task
/// index_of[t] of original task_of[t]. fanout == 1 everywhere when the
/// wave may not split or nothing is hot — the layout then degenerates
/// to the identity and every downstream loop behaves exactly as before.
struct SaltPlan {
  bool active = false;
  int64_t extra = 0;        ///< sub-tasks beyond the original task count
  std::vector<int> fanout;  ///< per original task, 1 = unsplit
  std::vector<int> first;   ///< original task -> its first virtual index
  std::vector<int> task_of;   ///< virtual -> original task
  std::vector<int> index_of;  ///< virtual -> sub-task index within task
};

/// Plans the salt layout of a wave whose tasks carry `rows`; with
/// `splittable` false (a combine whose partials may not re-merge
/// exactly) every task stays whole.
SaltPlan PlanSalt(const std::vector<int64_t>& rows, const SkewConfig& cfg,
                  bool splittable) {
  SaltPlan plan;
  const int n = static_cast<int>(rows.size());
  plan.fanout.assign(n, 1);
  int64_t total = 0;
  for (int64_t r : rows) total += r;
  if (splittable && n > 1 && total > 0) {
    const double mean = static_cast<double>(total) / n;
    for (int p = 0; p < n; ++p) {
      if (rows[p] >= cfg.min_rows &&
          static_cast<double>(rows[p]) > kSkewRatio * mean) {
        // Enough sub-tasks that each still carries min_rows-scale work.
        const int64_t want = rows[p] / std::max<int64_t>(cfg.min_rows, 1);
        plan.fanout[p] = static_cast<int>(std::clamp<int64_t>(
            want, 2, kSkewMaxFanout));
      }
    }
  }
  plan.first.reserve(n);
  for (int p = 0; p < n; ++p) {
    plan.first.push_back(static_cast<int>(plan.task_of.size()));
    for (int s = 0; s < plan.fanout[p]; ++s) {
      plan.task_of.push_back(p);
      plan.index_of.push_back(s);
    }
    if (plan.fanout[p] > 1) {
      plan.active = true;
      plan.extra += plan.fanout[p] - 1;
    }
  }
  return plan;
}

/// Emits the skew_salting event for an active salt plan (no-op when the
/// plan split nothing or no log is attached): how many hot tasks were
/// split and how many extra sub-tasks the split added.
void EmitSkewSalting(EventLog* events, int stage, const char* wave,
                     const SaltPlan& salt) {
  if (events == nullptr || !salt.active) return;
  Event e;
  e.name = "skew_salting";
  e.stage_id = stage;
  int64_t hot = 0;
  for (int f : salt.fanout) {
    if (f > 1) ++hot;
  }
  e.ints.emplace_back("hot_tasks", hot);
  e.ints.emplace_back("extra_tasks", salt.extra);
  e.strs.emplace_back("wave", wave);
  events->Emit(std::move(e));
}

/// Row range [lo, hi) of chunk `index` of `fanout` over `n` rows:
/// contiguous, covering, ascending — chunk order IS arrival order.
std::pair<size_t, size_t> ChunkRange(size_t n, int index, int fanout) {
  const size_t f = static_cast<size_t>(fanout);
  const size_t i = static_cast<size_t>(index);
  return {n * i / f, n * (i + 1) / f};
}

/// Un-salt merge of one STRIPED destination: k-way merge of the
/// sub-tasks' sorted (key, value) rows. Striping is by key hash, so the
/// key sets are disjoint — this is a plain sorted merge, byte-identical
/// to the sort the unsplit task would have produced.
ValueVec MergeSortedRows(std::vector<ValueVec> parts) {
  size_t total = 0;
  for (const ValueVec& p : parts) total += p.size();
  ValueVec out;
  out.reserve(total);
  std::vector<size_t> cur(parts.size(), 0);
  while (out.size() < total) {
    int best = -1;
    for (size_t s = 0; s < parts.size(); ++s) {
      if (cur[s] >= parts[s].size()) continue;
      if (best < 0 || parts[s][cur[s]].tuple()[0] <
                          parts[best][cur[best]].tuple()[0]) {
        best = static_cast<int>(s);
      }
    }
    out.push_back(std::move(parts[best][cur[best]]));
    ++cur[best];
  }
  return out;
}

/// Un-salt merge of one CHUNKED groupByKey destination: k-way merge of
/// the chunks' sorted (key, bag) rows; a key present in several chunks
/// concatenates its partial bags in chunk order — which is arrival
/// order, because chunks are contiguous ascending row ranges. Counts
/// each extra appearance of a key (a fold the merge performed) into
/// `salted_keys`.
ValueVec MergeSortedBags(std::vector<ValueVec> parts, int64_t* salted_keys) {
  size_t total = 0;
  for (const ValueVec& p : parts) total += p.size();
  ValueVec out;
  out.reserve(total);
  std::vector<size_t> cur(parts.size(), 0);
  size_t done = 0;
  while (done < total) {
    int best = -1;
    for (size_t s = 0; s < parts.size(); ++s) {
      if (cur[s] >= parts[s].size()) continue;
      if (best < 0 || parts[s][cur[s]].tuple()[0] <
                          parts[best][cur[best]].tuple()[0]) {
        best = static_cast<int>(s);
      }
    }
    const Value& key = parts[best][cur[best]].tuple()[0];
    ValueVec bag;
    int appearances = 0;
    for (size_t s = static_cast<size_t>(best); s < parts.size(); ++s) {
      if (cur[s] >= parts[s].size()) continue;
      const Value& row = parts[s][cur[s]];
      if (!(row.tuple()[0] == key)) continue;
      const ValueVec& part_bag = row.tuple()[1].bag();
      bag.insert(bag.end(), part_bag.begin(), part_bag.end());
      ++cur[s];
      ++done;
      ++appearances;
    }
    if (appearances > 1) *salted_keys += appearances - 1;
    out.push_back(Value::MakePair(key, Value::MakeBag(std::move(bag))));
  }
  return out;
}

/// Splits one destination's shuffled rows into `k` hash stripes,
/// preserving arrival order within each stripe (stable single pass).
/// Every row of a key shares the key's hash, hence its stripe: no key
/// is ever split, so per-key fold order is untouched.
std::vector<HashedVec> StripeHashed(HashedVec rows, int k) {
  std::vector<HashedVec> stripes(k);
  for (HashedVec& s : stripes) s.reserve(rows.size() / k + 1);
  for (HashedRow& hr : rows) {
    stripes[RemixHash(hr.hash) % static_cast<size_t>(k)].push_back(
        std::move(hr));
  }
  return stripes;
}

/// StripeHashed for the typed shuffle representation. Each stripe keeps
/// a copy of the (shared-payload) string dictionary so its codes stay
/// resolvable independently.
std::vector<TypedRows> StripeTyped(const TypedRows& rows, int k) {
  std::vector<TypedRows> stripes(k);
  const bool ints = rows.payload_mode == TypedPayloadMode::kInt64;
  for (TypedRows& s : stripes) {
    s.key_mode = rows.key_mode;
    s.payload_mode = rows.payload_mode;
    s.dict_values = rows.dict_values;
    s.dict_hashes = rows.dict_hashes;
    s.hashes.reserve(rows.size() / k + 1);
    s.key_bits.reserve(rows.size() / k + 1);
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    TypedRows& s = stripes[RemixHash(rows.hashes[i]) % static_cast<size_t>(k)];
    s.hashes.push_back(rows.hashes[i]);
    s.key_bits.push_back(rows.key_bits[i]);
    if (ints) {
      s.pay_ints.push_back(rows.pay_ints[i]);
    } else {
      s.pay_doubles.push_back(rows.pay_doubles[i]);
    }
  }
  return stripes;
}

// ChainTally moved to runtime/wave_io.h: the distributed backend
// marshals the per-task tallies back with the wave's output slots.

/// Applies chain[i..] to `v` element-by-element, delivering every
/// surviving output row to `sink` (a Status(const Value&) callable).
/// Rows produced at boundary b are recorded in `tally` (may be null;
/// boundaries past its Reset() size — i.e. outputs the caller does
/// materialize — are ignored).
template <typename Sink>
Status ApplyChain(const FusedChain& chain, size_t i, const Value& v,
                  ChainTally* tally, Sink&& sink) {
  if (i == chain.size()) return sink(v);
  const FusedOp& op = chain[i];
  switch (op.kind) {
    case FusedOp::Kind::kMap: {
      DIABLO_ASSIGN_OR_RETURN(Value out, op.map(v));
      if (tally != nullptr) tally->Record(i, out);
      return ApplyChain(chain, i + 1, out, tally, sink);
    }
    case FusedOp::Kind::kMapValues: {
      if (!v.is_tuple() || v.tuple().size() != 2) {
        return Status::RuntimeError(
            StrCat("mapValues applied to non-pair row: ", v.ToString()));
      }
      DIABLO_ASSIGN_OR_RETURN(Value mv, op.map(v.tuple()[1]));
      Value out = Value::MakePair(v.tuple()[0], std::move(mv));
      if (tally != nullptr) tally->Record(i, out);
      return ApplyChain(chain, i + 1, out, tally, sink);
    }
    case FusedOp::Kind::kFilter: {
      DIABLO_ASSIGN_OR_RETURN(bool keep, op.pred(v));
      if (!keep) return Status::OK();
      if (tally != nullptr) tally->Record(i, v);
      return ApplyChain(chain, i + 1, v, tally, sink);
    }
    case FusedOp::Kind::kFlatMap: {
      DIABLO_ASSIGN_OR_RETURN(ValueVec vs, op.flat(v));
      for (const Value& out : vs) {
        if (tally != nullptr) tally->Record(i, out);
        DIABLO_RETURN_IF_ERROR(ApplyChain(chain, i + 1, out, tally, sink));
      }
      return Status::OK();
    }
  }
  return Status::RuntimeError("unknown fused operator kind");
}

/// The stage label of a fused chain: its operator labels joined with '+'.
std::string ChainLabel(const FusedChain& chain) {
  std::string label;
  for (const FusedOp& op : chain) {
    if (!label.empty()) label += '+';
    label += op.label;
  }
  return label;
}

/// Recorded label of a wide stage that inlined a pending chain, e.g.
/// "flatMap+filter+reduceByKey".
std::string FusedStageLabel(const FusedChain& chain,
                            const std::string& label) {
  return chain.empty() ? label : ChainLabel(chain) + "+" + label;
}

/// True when every operator of the chain carries a column kernel and
/// all kernels agree on the row shape (whole rows vs pair values) — the
/// precondition for running the chain over one column batch.
bool ChainFullyKernelized(const FusedChain& chain) {
  if (chain.empty()) return false;
  if (!chain[0].kernel.has_value()) return false;
  const bool on_value = chain[0].kernel->on_value;
  for (const FusedOp& op : chain) {
    if (!op.kernel.has_value()) return false;
    if (op.kernel->on_value != on_value) return false;
  }
  return true;
}

/// The key of a (key, value) row of a keyed operator.
StatusOr<const Value*> RowKey(const Value& row) {
  if (!row.is_tuple() || row.tuple().size() != 2) {
    return Status::RuntimeError(
        StrCat("keyed operator applied to non-pair row: ", row.ToString()));
  }
  return &row.tuple()[0];
}

/// Maps the rows one source partition produced to the rows it ships.
using SourceCombine = std::function<StatusOr<HashedVec>(HashedVec)>;

/// The restricted scatter of lineage recovery. Replays `side`'s pending
/// fused chain over every source partition in order, hashing each
/// produced row's key once, and keeps a row only when its destination
/// was lost: result[i] holds exactly the post-shuffle rows of
/// destination lost[i], in the forward shuffle's arrival order.
/// `combine` (nullable) maps each source partition's produced rows to
/// the rows it ships before they are routed (reduceByKey's map-side
/// combine). Charges one work unit per source row.
StatusOr<std::vector<HashedVec>> ScatterLost(
    const Dataset& side, const std::vector<int>& lost, int out_parts,
    int64_t* work, const SourceCombine& combine) {
  std::vector<int> slot_of(out_parts, -1);
  for (size_t i = 0; i < lost.size(); ++i) {
    slot_of[lost[i]] = static_cast<int>(i);
  }
  std::vector<HashedVec> out(lost.size());
  for (int s = 0; s < side.num_partitions(); ++s) {
    HashedVec produced;
    for (const Value& row : side.partition(s)) {
      *work += 1;
      DIABLO_RETURN_IF_ERROR(ApplyChain(
          side.chain(), 0, row, nullptr, [&](const Value& v) -> Status {
            DIABLO_ASSIGN_OR_RETURN(const Value* key, RowKey(v));
            produced.push_back(HashedRow{key->Hash(), v});
            return Status::OK();
          }));
    }
    if (combine) {
      DIABLO_ASSIGN_OR_RETURN(produced, combine(std::move(produced)));
    }
    for (HashedRow& hr : produced) {
      const int slot = slot_of[HashDestination(hr.hash, out_parts)];
      if (slot >= 0) out[slot].push_back(std::move(hr));
    }
  }
  return out;
}

/// Driver-side un-salt of a salted reduce wave (groupByKey's chunks,
/// reduceByKey's stripes): an unsplit destination takes its one
/// sub-task's rows, a split one merges its sub-tasks' rows with
/// `merge`. When the plan split anything, `*unsalt` receives the
/// `label.unsalt` planner stage, one map_work entry (the merged row
/// count) per split destination; the caller records it after the stage.
template <typename Merge>
std::vector<ValueVec> Unsalt(const SaltPlan& salt,
                             std::vector<ValueVec> sub_out, Merge merge,
                             const std::string& label,
                             std::optional<StageStats>* unsalt) {
  std::vector<ValueVec> out(salt.fanout.size());
  std::vector<int64_t> work;
  for (size_t p = 0; p < out.size(); ++p) {
    const auto first = sub_out.begin() + salt.first[p];
    if (salt.fanout[p] == 1) {
      out[p] = std::move(*first);
      continue;
    }
    out[p] = merge(std::vector<ValueVec>(
        std::make_move_iterator(first),
        std::make_move_iterator(first + salt.fanout[p])));
    work.push_back(static_cast<int64_t>(out[p].size()));
  }
  if (salt.active) {
    StageStats stage;
    stage.label = label + ".unsalt";
    stage.wide = false;
    stage.map_work = std::move(work);
    *unsalt = std::move(stage);
  }
  return out;
}

}  // namespace

Engine::Engine(EngineConfig config)
    : config_(std::move(config)), injector_(config_.faults) {
  if (config_.num_partitions < 1) config_.num_partitions = 1;
  if (config_.host_threads < 1) config_.host_threads = 1;
  if (config_.faults.max_task_attempts < 1) config_.faults.max_task_attempts = 1;
  if (config_.remote != nullptr) {
    // The coordinator forks workers mid-wave; the driver must hold no
    // extra threads at fork time (a forked child inherits only the
    // calling thread, so a pool worker's locks would be orphaned).
    config_.host_threads = 1;
  }
  // Real kills recover through lineage, so the recompute closures must
  // survive even with every simulated fault class disarmed.
  if (config_.dist_lose_on_kill) config_.faults.retain_lineage = true;
  if (config_.tracing) trace_ = std::make_unique<TraceRecorder>();
}

Engine::~Engine() = default;

Engine::RemoteScope::RemoteScope(Engine* engine) {
  if (engine->config_.remote == nullptr || engine->remote_scope_ != 0) return;
  // Process-wide ids: two engines sharing one backend never share one.
  static std::atomic<uint64_t> next_scope{1};
  engine_ = engine;
  engine_->remote_scope_ = next_scope.fetch_add(1);
  engine_->remote_waves_in_scope_ = 0;
}

Engine::RemoteScope::~RemoteScope() {
  if (engine_ == nullptr) return;
  std::function<void()> on_end = std::move(engine_->remote_scope_end_);
  engine_->remote_scope_end_ = nullptr;
  engine_->remote_scope_ = 0;
  if (on_end) on_end();
}

Dataset Engine::Parallelize(ValueVec rows) const {
  return Parallelize(std::move(rows), config_.num_partitions);
}

Dataset Engine::Parallelize(ValueVec rows, int num_partitions) const {
  if (num_partitions < 1) num_partitions = 1;
  std::vector<ValueVec> parts(num_partitions);
  const size_t n = rows.size();
  size_t begin = 0;
  for (int p = 0; p < num_partitions; ++p) {
    size_t end = n * (p + 1) / num_partitions;
    parts[p].reserve(end - begin);
    for (size_t i = begin; i < end; ++i) parts[p].push_back(std::move(rows[i]));
    begin = end;
  }
  return Dataset(std::move(parts));
}

Dataset Engine::Range(int64_t lo, int64_t hi) const {
  ValueVec rows;
  if (hi >= lo) {
    rows.reserve(static_cast<size_t>(hi - lo + 1));
    for (int64_t i = lo; i <= hi; ++i) rows.push_back(Value::MakeInt(i));
  }
  return Parallelize(std::move(rows));
}

Status Engine::RunPerPartition(int n,
                               const std::function<Status(int)>& fn) const {
  if (n <= 0) return Status::OK();
  const int threads = std::min(config_.host_threads, n);
  if (threads <= 1) {
    // Serial order stops at the first error, which IS the
    // lowest-indexed failing partition.
    for (int i = 0; i < n; ++i) DIABLO_RETURN_IF_ERROR(fn(i));
    return Status::OK();
  }
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkerPool>(config_.host_threads);
  }
  pool_tasks_pending_ += n;
  return pool_->Run(n, fn);
}

Status Engine::RunTaskWave(const std::string& label, int stage,
                           const std::vector<int64_t>& task_work,
                           const std::function<Status(int, int)>& fn,
                           StageRecovery* rec, const WaveSlots* slots) {
  const int n = static_cast<int>(task_work.size());
  if (n == 0) return Status::OK();
  TraceRecorder* tr = trace();
  ScopedSpan wave_span(tr, SpanKind::kWave, label);
  wave_span.SetStageId(stage);
  if (config_.remote != nullptr && slots != nullptr) {
    return RunTaskWaveRemote(label, stage, task_work, fn, rec, *slots, tr,
                             wave_span.id());
  }
  // Times one task attempt into a task span under the wave. Tracing
  // never perturbs execution: the stage/partition/attempt coordinates
  // the fault injector sees are identical either way.
  auto invoke = [&](int p, int attempt) -> Status {
    if (tr == nullptr) return fn(p, attempt);
    const double t0 = tr->NowUs();
    Status st = fn(p, attempt);
    tr->AddTask(wave_span.id(), t0, tr->NowUs() - t0, CurrentTraceWorker(), p,
                attempt, stage, task_work[p]);
    return st;
  };
  if (!config_.faults.enabled()) {
    // Fault-free fast path: every task succeeds on its first attempt and
    // no retry bookkeeping is kept.
    rec->attempts += n;
    return RunPerPartition(n, [&](int p) { return invoke(p, 0); });
  }
  const FaultConfig& fc = config_.faults;
  const int budget = fc.max_task_attempts;
  // Per-task tallies, merged in index order below so the floating-point
  // sums are identical for every host_threads setting.
  std::vector<int64_t> attempts(n, 0);
  std::vector<double> recovery(n, 0.0);
  Status st = RunPerPartition(n, [&](int p) -> Status {
    const double task_seconds = static_cast<double>(task_work[p]) *
                                config_.cluster.seconds_per_work_unit;
    for (int attempt = 0; attempt < budget; ++attempt) {
      ++attempts[p];
      if (injector_.TaskAttemptFails(stage, p, attempt)) {
        // The attempt dies partway through: its work is wasted and the
        // scheduler waits out a backoff before relaunching.
        recovery[p] += task_seconds + RetryBackoff(fc, attempt);
        EmitTaskRetry(config_.events, stage, p, "attempt", attempt,
                      "sim_kill");
        continue;
      }
      Status run = invoke(p, attempt);
      if (run.ok()) {
        const double mult = injector_.StragglerMultiplier(stage, p, attempt);
        if (mult > 1.0) recovery[p] += (mult - 1.0) * task_seconds;
        return Status::OK();
      }
      // Only simulated faults are retryable; a genuine callback error
      // aborts the stage unchanged.
      if (run.code() != StatusCode::kTaskLost) return run;
      recovery[p] += task_seconds + RetryBackoff(fc, attempt);
      EmitTaskRetry(config_.events, stage, p, "attempt", attempt,
                    "task_lost");
    }
    return RetryBudgetExhausted(label, stage, p, budget);
  });
  for (int p = 0; p < n; ++p) {
    rec->attempts += attempts[p];
    rec->recovery_seconds += recovery[p];
  }
  return st;
}

Status Engine::RunTaskWaveRemote(const std::string& label, int stage,
                                 const std::vector<int64_t>& task_work,
                                 const std::function<Status(int, int)>& fn,
                                 StageRecovery* rec, const WaveSlots& slots,
                                 TraceRecorder* tr, int64_t wave_span_id) {
  const int n = static_cast<int>(task_work.size());
  const FaultConfig& fc = config_.faults;
  const bool faults_on = fc.enabled();
  // Per-task tallies written by the coordinator-side hooks, merged in
  // index order below — same deterministic float summation as the local
  // scheduler, whatever order results come off the sockets.
  std::vector<int64_t> attempts(n, 0);
  std::vector<double> recovery(n, 0.0);
  std::vector<double> dispatch_t0(n, 0.0);
  auto task_seconds = [&](int p) {
    return static_cast<double>(task_work[p]) *
           config_.cluster.seconds_per_work_unit;
  };

  // Tasks whose worker shipped a kTelemetry frame before the result:
  // their worker-side span replaces the coordinator's synthesized
  // dispatch→result span (keeping both would double-count the task in
  // AggregateTaskTimes). Telemetry frames precede their kTaskResult on
  // the wire, so the flag is always set before on_complete fires.
  std::vector<char> telemetry_seen(static_cast<size_t>(n), 0);

  RemoteTaskWave wave;
  wave.label = label;
  wave.stage = stage;
  wave.task_work = task_work;
  wave.want_telemetry = tr != nullptr || config_.registry != nullptr;
  wave.max_sim_attempts = faults_on ? fc.max_task_attempts : 1;
  wave.run = fn;
  wave.encode = [&slots](int p) { return EncodeTaskSlots(slots, p); };
  wave.install = [&slots](int p, std::string_view bytes) {
    return DecodeTaskSlots(slots, p, bytes);
  };
  wave.scope = remote_scope_;
  if (remote_scope_ != 0) wave.seq = remote_waves_in_scope_++;
  wave.at_scope_end = [this](std::function<void()> on_end) {
    remote_scope_end_ = std::move(on_end);
  };
  wave.begin_attempt = [&attempts](int p) {
    return static_cast<int>(attempts[p]++);
  };
  wave.sim_kill = [this, faults_on, stage](int p, int attempt) {
    return faults_on && injector_.TaskAttemptFails(stage, p, attempt);
  };
  wave.charge_failure = [&, this, stage](int p, int attempt) {
    recovery[p] += task_seconds(p) + RetryBackoff(fc, attempt);
    EmitTaskRetry(config_.events, stage, p, "attempt", attempt, "sim_kill");
  };
  wave.charge_success = [&, this](int p, int attempt) {
    if (!faults_on) return;
    const double mult = injector_.StragglerMultiplier(stage, p, attempt);
    if (mult > 1.0) recovery[p] += (mult - 1.0) * task_seconds(p);
  };
  const int budget = wave.max_sim_attempts;
  wave.sim_budget_exhausted = [label, stage, budget](int p) {
    return RetryBudgetExhausted(label, stage, p, budget);
  };
  wave.on_dispatch = [&dispatch_t0, tr](int p, int, int) {
    if (tr != nullptr) dispatch_t0[p] = tr->NowUs();
  };
  wave.on_telemetry = [&, this, tr, wave_span_id, stage](
                          int worker, double clock_offset_us,
                          const WorkerTelemetry& telemetry) {
    if (telemetry.task >= 0 && telemetry.task < n) {
      telemetry_seen[static_cast<size_t>(telemetry.task)] = 1;
    }
    // Worker-side memory watermark: attributed to the consuming stage
    // at the next FinishStage (same drain pattern as pool task
    // tallies), and published per worker in the registry.
    if (telemetry.peak_rss_bytes > worker_rss_pending_) {
      worker_rss_pending_ = telemetry.peak_rss_bytes;
    }
    if (config_.registry != nullptr) {
      config_.registry->GaugeMax("diablo_worker_peak_rss_bytes",
                                 static_cast<double>(telemetry.peak_rss_bytes),
                                 {{"worker", StrCat(worker)}});
      for (const WorkerSpan& ws : telemetry.spans) {
        config_.registry->HistogramObserve("diablo_task_duration_us",
                                           ws.dur_us,
                                           {{"process", StrCat(worker + 1)}});
      }
    }
    if (tr == nullptr) return;
    // Clock alignment: worker span times are absolute steady-clock
    // readings from the worker process; the Hello handshake measured
    // worker_now - driver_now, so subtracting the offset (then the
    // trace epoch) rebases them onto the driver timeline. Offsets
    // below the threshold collapse to zero — see kClockAlignThresholdUs.
    const double applied = std::abs(clock_offset_us) < kClockAlignThresholdUs
                               ? 0.0
                               : clock_offset_us;
    for (const WorkerSpan& ws : telemetry.spans) {
      TraceSpan span;
      span.kind = SpanKind::kTask;
      span.name = "task";
      span.start_us = ws.start_abs_us - applied - tr->EpochUs();
      span.dur_us = ws.dur_us;
      // Remote worker w is trace worker w+1 (0 = driver) and Chrome
      // process lane w+1 (0 = coordinator).
      span.worker = worker + 1;
      span.partition = ws.partition;
      span.attempt = ws.attempt;
      span.stage_id = ws.stage_id;
      span.rows = ws.rows;
      span.process = worker + 1;
      span.clock_offset_us = clock_offset_us;
      tr->AddRemoteSpan(wave_span_id, std::move(span));
    }
  };
  wave.on_complete = [&, tr, wave_span_id, stage](int p, int attempt,
                                                  int worker) {
    // Skip the synthesized span when the worker's own telemetry span
    // for this task was already spliced in (see wave.on_telemetry).
    if (tr != nullptr && !telemetry_seen[static_cast<size_t>(p)]) {
      // Worker-process rows in the Chrome trace: remote worker w runs
      // as trace worker w+1 (0 is the driver), same convention as the
      // in-process thread pool.
      tr->AddTask(wave_span_id, dispatch_t0[p], tr->NowUs() - dispatch_t0[p],
                  worker + 1, p, attempt, stage, task_work[p]);
    }
  };
  wave.on_worker_lost = [&, this, tr, stage](int worker,
                                             const std::vector<int>& pending,
                                             const std::string& reason) {
    if (tr != nullptr) {
      ScopedSpan span(tr, SpanKind::kRecovery,
                      StrCat("worker ", worker, " lost (", reason, "): ",
                             pending.size(), " task",
                             pending.size() == 1 ? "" : "s", " re-admitted"));
      span.SetStageId(stage);
    }
    for (int p : pending) {
      EmitTaskRetry(config_.events, stage, p, "worker", worker, "worker_lost");
    }
    if (config_.dist_lose_on_kill) {
      // Register the dead worker's partitions for lineage recovery at
      // the next stage boundary (consumed by RecoverInput).
      for (int p : pending) pending_lost_partitions_.push_back(p);
    }
  };

  RemoteWaveStats stats;
  Status st = config_.remote->RunWave(wave, &stats);
  for (int p = 0; p < n; ++p) {
    rec->attempts += attempts[p];
    rec->recovery_seconds += recovery[p];
  }
  rec->dist_tasks += stats.tasks;
  rec->dist_retries += stats.real_retries;
  rec->dist_workers_lost += stats.workers_lost;
  return st;
}

StatusOr<Dataset> Engine::RecoverInput(const Dataset& in, int stage,
                                       int input_index, StageRecovery* rec) {
  if (!config_.faults.enabled()) return in;
  std::vector<int> lost =
      injector_.LostPartitions(stage, input_index, in.num_partitions());
  if (input_index == 0 && !pending_lost_partitions_.empty()) {
    // Partitions owed by workers that really died in an earlier wave
    // (dist_lose_on_kill): rebuild them from lineage here. The rebuilt
    // rows are bit-identical to what the survivors recomputed, so this
    // only exercises the recovery path — it can never change output.
    for (int p : pending_lost_partitions_) {
      if (p >= 0 && p < in.num_partitions()) lost.push_back(p);
    }
    pending_lost_partitions_.clear();
  }
  if (lost.empty()) return in;
  std::sort(lost.begin(), lost.end());
  lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
  const std::shared_ptr<const LineageNode>& lineage = in.lineage();
  // Lineage recomputation attributed as its own span nested under the
  // consuming stage.
  ScopedSpan recovery_span(
      trace(), SpanKind::kRecovery,
      StrCat("recover input ", input_index, " (", lost.size(),
             " lost partition", lost.size() == 1 ? "" : "s", ")"));
  recovery_span.SetStageId(stage);
  if (config_.events != nullptr) {
    Event e;
    e.name = "lineage_recovery";
    e.stage_id = stage;
    e.ints.emplace_back("input_index", input_index);
    e.ints.emplace_back("partitions", static_cast<int64_t>(lost.size()));
    config_.events->Emit(std::move(e));
  }
  std::vector<ValueVec> parts = in.partitions();
  if (lineage == nullptr || lineage->durable) {
    // Durable data (source or checkpoint): re-read from stable
    // storage. The rows survive; only the re-read scan is charged.
    for (int p : lost) {
      rec->recomputed_partitions += 1;
      rec->recovery_seconds += static_cast<double>(parts[p].size()) *
                               config_.cluster.seconds_per_work_unit;
    }
  } else if (lineage->recompute_many) {
    // Single-pass multi-partition recovery: one scan over the ancestor
    // data rebuilds every lost partition at once.
    std::vector<ValueVec> rebuilt;
    int64_t work = 0;
    DIABLO_RETURN_IF_ERROR(lineage->recompute_many(lost, &rebuilt, &work));
    if (rebuilt.size() != lost.size()) {
      return Status::RuntimeError(
          StrCat("stage #", stage, ": lineage recompute of dataset '",
                 lineage->label, "' rebuilt ", rebuilt.size(),
                 " partitions, expected ", lost.size()));
    }
    for (size_t i = 0; i < lost.size(); ++i) {
      rec->recomputed_partitions += 1;
      parts[lost[i]] = std::move(rebuilt[i]);
    }
    rec->recovery_seconds +=
        static_cast<double>(work) * config_.cluster.seconds_per_work_unit;
  } else if (lineage->recompute) {
    for (int p : lost) {
      rec->recomputed_partitions += 1;
      int64_t work = 0;
      DIABLO_ASSIGN_OR_RETURN(parts[p], lineage->recompute(p, &work));
      rec->recovery_seconds +=
          static_cast<double>(work) * config_.cluster.seconds_per_work_unit;
    }
  } else {
    return Status::RuntimeError(
        StrCat("stage #", stage, ": input partition ", lost.front(),
               " lost and no lineage recompute is available (dataset '",
               lineage->label, "')"));
  }
  // Keep any pending fused chain: the stage's input is the source rows
  // plus the chain, and only the source rows were lost.
  return Dataset(std::move(parts), lineage, in.chain_ptr());
}

void Engine::FinishStage(StageStats stats, const StageRecovery& rec) {
  stats.attempts = rec.attempts;
  stats.recomputed_partitions = rec.recomputed_partitions;
  stats.recovery_seconds = rec.recovery_seconds;
  stats.dist_tasks = rec.dist_tasks;
  stats.dist_retries = rec.dist_retries;
  stats.dist_workers_lost = rec.dist_workers_lost;
  stats.pool_tasks = pool_tasks_pending_;
  pool_tasks_pending_ = 0;
  stats.cost_decisions += cost_decisions_pending_;
  cost_decisions_pending_ = 0;
  // Per-stage memory high-water mark: the driver's own peak RSS, raised
  // by any worker-process peak shipped in telemetry frames since the
  // last stage boundary (drained like pool task tallies). RSS is
  // monotone, so the per-stage series shows which stage first pushed
  // the process high-water mark.
  stats.peak_rss_bytes = std::max(MetricsRegistry::ProcessPeakRssBytes(),
                                  worker_rss_pending_);
  worker_rss_pending_ = 0;
  if (provenance_.line > 0) {
    stats.src_file = provenance_.file;
    stats.src_line = provenance_.line;
    stats.src_column = provenance_.column;
  }
  if (config_.registry != nullptr) {
    const MetricLabels stage_labels = {
        {"stage", StrCat(metrics_.stages().size())}, {"label", stats.label}};
    config_.registry->CounterAdd("diablo_stages_total", 1);
    config_.registry->CounterAdd("diablo_task_attempts_total", stats.attempts);
    config_.registry->CounterAdd("diablo_shuffle_bytes_total",
                                 stats.shuffle_bytes);
    config_.registry->GaugeSet("diablo_stage_peak_rss_bytes",
                               static_cast<double>(stats.peak_rss_bytes),
                               stage_labels);
    if (stats.accumulator_bytes_peak > 0) {
      config_.registry->GaugeSet(
          "diablo_stage_accumulator_bytes_peak",
          static_cast<double>(stats.accumulator_bytes_peak), stage_labels);
    }
    config_.registry->HistogramObserve(
        "diablo_stage_shuffle_bytes", static_cast<double>(stats.shuffle_bytes));
  }
  if (TraceRecorder* t = trace()) {
    // The innermost open stage span belongs to the operator finishing
    // this stage (each operator opens exactly one before it runs).
    const int64_t span = t->OpenSpan(SpanKind::kStage);
    if (span >= 0) {
      t->SetName(span, stats.label);
      t->SetMetricsIndex(span, static_cast<int>(metrics_.stages().size()));
      t->SetShuffleBytes(span, stats.shuffle_bytes);
      if (!stats.partition_rows.empty()) {
        int64_t rows = 0;
        for (int64_t c : stats.partition_rows) rows += c;
        t->SetRows(span, rows);
      }
      t->SetLocation(span, stats.src_file, stats.src_line, stats.src_column);
    }
  }
  metrics_.AddStage(std::move(stats));
}

void Engine::RecordPlannerStage(StageStats stats) {
  if (provenance_.line > 0) {
    stats.src_file = provenance_.file;
    stats.src_line = provenance_.line;
    stats.src_column = provenance_.column;
  }
  if (TraceRecorder* t = trace()) {
    // Zero-duration stage span: the work happened inside other spans
    // (or is purely simulated); this records the stage's existence,
    // label, and provenance in the trace.
    ScopedSpan span(t, SpanKind::kStage, stats.label);
    t->SetMetricsIndex(span.id(), static_cast<int>(metrics_.stages().size()));
    t->SetShuffleBytes(span.id(), stats.shuffle_bytes);
    span.SetLocation(stats.src_file, stats.src_line, stats.src_column);
  }
  metrics_.AddStage(std::move(stats));
}

std::shared_ptr<const LineageNode> Engine::MakeLineage(
    std::string kind, std::string label,
    std::vector<std::shared_ptr<const LineageNode>> parents,
    LineageNode::RecomputeFn recompute,
    LineageNode::RecomputeManyFn recompute_many, int depth_increment) const {
  auto node = std::make_shared<LineageNode>();
  node->kind = std::move(kind);
  node->label = std::move(label);
  int depth = 0;
  for (const auto& parent : parents) {
    if (parent != nullptr) depth = std::max(depth, parent->depth);
  }
  node->depth = depth + depth_increment;
  node->parents = std::move(parents);
  // Without fault injection no recovery can ever be requested, so the
  // closures (and the ancestor datasets they capture) are dropped here —
  // fault-free runs retain no extra memory.
  if (config_.faults.enabled()) {
    node->recompute = std::move(recompute);
    node->recompute_many = std::move(recompute_many);
  }
  return node;
}

std::shared_ptr<const LineageNode> Engine::WideLineage(
    std::string kind, const std::string& label, std::vector<Dataset> inputs,
    WideFinalizer finalize, SourceCombine combine) const {
  std::vector<std::shared_ptr<const LineageNode>> parents;
  size_t chain_depth = 0;
  for (const Dataset& in : inputs) {
    parents.push_back(in.lineage());
    chain_depth = std::max(chain_depth, in.chain().size());
  }
  const int out_parts = config_.num_partitions;
  auto recompute_many = [inputs = std::move(inputs),
                         finalize = std::move(finalize),
                         combine = std::move(combine), out_parts](
                            const std::vector<int>& lost,
                            std::vector<ValueVec>* rebuilt,
                            int64_t* work) -> Status {
    // One restricted scatter per input: every source row is scanned and
    // hashed once, and only lost destinations' rows are kept.
    std::vector<std::vector<HashedVec>> rows(lost.size());
    for (const Dataset& side : inputs) {
      DIABLO_ASSIGN_OR_RETURN(
          std::vector<HashedVec> scattered,
          ScatterLost(side, lost, out_parts, work, combine));
      for (size_t i = 0; i < lost.size(); ++i) {
        rows[i].push_back(std::move(scattered[i]));
      }
    }
    rebuilt->resize(lost.size());
    for (size_t i = 0; i < lost.size(); ++i) {
      DIABLO_ASSIGN_OR_RETURN((*rebuilt)[i], finalize(rows[i]));
    }
    return Status::OK();
  };
  return MakeLineage(std::move(kind), label, std::move(parents), nullptr,
                     std::move(recompute_many),
                     1 + static_cast<int>(chain_depth));
}

StatusOr<Dataset> Engine::Map(const Dataset& in, const MapFn& fn,
                              const std::string& label) {
  FusedOp op;
  op.kind = FusedOp::Kind::kMap;
  op.label = label;
  op.map = fn;
  return in.WithOp(std::move(op));
}

StatusOr<Dataset> Engine::MapValues(const Dataset& in, const MapFn& fn,
                                    const std::string& label) {
  FusedOp op;
  op.kind = FusedOp::Kind::kMapValues;
  op.label = label;
  op.map = fn;
  return in.WithOp(std::move(op));
}

StatusOr<Dataset> Engine::Filter(const Dataset& in, const PredFn& pred,
                                 const std::string& label) {
  FusedOp op;
  op.kind = FusedOp::Kind::kFilter;
  op.label = label;
  op.pred = pred;
  return in.WithOp(std::move(op));
}

StatusOr<Dataset> Engine::FlatMap(const Dataset& in, const FlatMapFn& fn,
                                  const std::string& label) {
  FusedOp op;
  op.kind = FusedOp::Kind::kFlatMap;
  op.label = label;
  op.flat = fn;
  return in.WithOp(std::move(op));
}

StatusOr<Dataset> Engine::Map(const Dataset& in, BinOp op, const Value& operand,
                              const std::string& label) {
  FusedOp fop;
  fop.kind = FusedOp::Kind::kMap;
  fop.label = label;
  fop.map = [op, operand](const Value& row) {
    return EvalBinOp(op, row, operand);
  };
  fop.kernel = ColumnKernel{op, operand, /*on_value=*/false};
  return in.WithOp(std::move(fop));
}

StatusOr<Dataset> Engine::MapValues(const Dataset& in, BinOp op,
                                    const Value& operand,
                                    const std::string& label) {
  FusedOp fop;
  fop.kind = FusedOp::Kind::kMapValues;
  fop.label = label;
  // The fused kMapValues operator hands `map` the pair's value (see
  // ApplyChain), so this closure sees the value directly.
  fop.map = [op, operand](const Value& v) {
    return EvalBinOp(op, v, operand);
  };
  fop.kernel = ColumnKernel{op, operand, /*on_value=*/true};
  return in.WithOp(std::move(fop));
}

StatusOr<Dataset> Engine::Filter(const Dataset& in, BinOp op,
                                 const Value& operand,
                                 const std::string& label) {
  FusedOp fop;
  fop.kind = FusedOp::Kind::kFilter;
  fop.label = label;
  fop.pred = [op, operand](const Value& row) -> StatusOr<bool> {
    DIABLO_ASSIGN_OR_RETURN(Value v, EvalBinOp(op, row, operand));
    if (!v.is_bool()) {
      return Status::RuntimeError(
          StrCat("filter predicate evaluated to non-bool: ", v.ToString()));
    }
    return v.AsBool();
  };
  fop.kernel = ColumnKernel{op, operand, /*on_value=*/false};
  return in.WithOp(std::move(fop));
}

StatusOr<Dataset> Engine::FilterValues(const Dataset& in, BinOp op,
                                       const Value& operand,
                                       const std::string& label) {
  FusedOp fop;
  fop.kind = FusedOp::Kind::kFilter;
  fop.label = label;
  fop.pred = [op, operand](const Value& row) -> StatusOr<bool> {
    if (!row.is_tuple() || row.tuple().size() != 2) {
      return Status::RuntimeError(
          StrCat("filterValues applied to non-pair row: ", row.ToString()));
    }
    DIABLO_ASSIGN_OR_RETURN(Value v, EvalBinOp(op, row.tuple()[1], operand));
    if (!v.is_bool()) {
      return Status::RuntimeError(
          StrCat("filter predicate evaluated to non-bool: ", v.ToString()));
    }
    return v.AsBool();
  };
  fop.kernel = ColumnKernel{op, operand, /*on_value=*/true};
  return in.WithOp(std::move(fop));
}

StatusOr<Dataset> Engine::Force(const Dataset& in) {
  if (in.materialized()) return in;
  const FusedChain& chain = in.chain();
  const std::string label = ChainLabel(chain);
  ScopedSpan stage_span(trace(), SpanKind::kStage, label);
  const int stage = NextStageId();
  stage_span.SetStageId(stage);
  StageRecovery rec;
  DIABLO_ASSIGN_OR_RETURN(Dataset src, RecoverInput(in, stage, 0, &rec));
  const int n = src.num_partitions();
  std::vector<ValueVec> out(n);
  std::vector<ChainTally> tallies(n);
  Status st;
  if (ChainFullyKernelized(chain)) {
    st = ForceColumnar(src, label, stage, &out, &tallies, &rec);
  } else {
    WaveSlots slots;
    slots.rows = &out;
    slots.tallies = &tallies;
    st = RunTaskWave(
        label, stage, RowCounts(src),
        [&](int p, int) -> Status {
          // Restartable: a failed attempt re-runs the whole fused chain.
          out[p].clear();
          out[p].reserve(src.partition(p).size());
          // The last operator's outputs ARE materialized here, so only
          // the chain.size()-1 interior boundaries count as saved.
          tallies[p].Reset(chain.size() - 1);
          for (const Value& row : src.partition(p)) {
            DIABLO_RETURN_IF_ERROR(
                ApplyChain(chain, 0, row, &tallies[p],
                           [&](const Value& v) -> Status {
                             out[p].push_back(v);
                             return Status::OK();
                           }));
          }
          return Status::OK();
        },
        &rec, &slots);
  }
  if (!st.ok()) return st;
  StageStats stats = NarrowStats(label, RowCounts(src));
  stats.fused_ops = static_cast<int64_t>(chain.size());
  for (const ChainTally& t : tallies) t.MergeInto(&stats);
  stats.partition_rows = RowCounts(out);
  FinishStage(std::move(stats), rec);
  // Recovery replays the boxed chain, whichever way the forward wave
  // ran it: replay IS the semantic truth, and a lost partition is the
  // rare path.
  auto lineage = MakeLineage(
      "fused", label, {src.lineage()},
      [src](int p, int64_t* work) -> StatusOr<ValueVec> {
        const ValueVec& rows = src.partition(p);
        *work += static_cast<int64_t>(rows.size());
        ValueVec rebuilt;
        rebuilt.reserve(rows.size());
        for (const Value& row : rows) {
          DIABLO_RETURN_IF_ERROR(
              ApplyChain(src.chain(), 0, row, nullptr,
                         [&](const Value& v) -> Status {
                           rebuilt.push_back(v);
                           return Status::OK();
                         }));
        }
        return rebuilt;
      },
      nullptr, static_cast<int>(chain.size()));
  return Dataset(std::move(out), std::move(lineage));
}

Status Engine::ForceColumnar(const Dataset& src, const std::string& label,
                             int stage, std::vector<ValueVec>* out,
                             std::vector<ChainTally>* tallies_out,
                             StageRecovery* rec) {
  const FusedChain& chain = src.chain();
  const int n = src.num_partitions();
  const bool on_value = chain[0].kernel->on_value;
  std::vector<ColumnBatch> batches(n);
  std::vector<ChainTally>& tallies = *tallies_out;
  WaveSlots slots;
  slots.col_batches = &batches;
  slots.tallies = &tallies;
  Status st = RunTaskWave(
      label, stage, RowCounts(src),
      [&](int p, int) -> Status {
        // Restartable: a failed attempt rebuilds the batch from scratch.
        const ValueVec& rows = src.partition(p);
        tallies[p].Reset(chain.size() - 1);
        batches[p] = ColumnBatch();
        // A partition the kernels can't handle (unsupported type mix,
        // non-pair rows under a value chain) replays the boxed per-row
        // chain — byte-identical by construction — and still ships its
        // output as a (boxed-column) batch.
        auto replay = [&]() -> Status {
          tallies[p].Reset(chain.size() - 1);
          ColumnBatch fallback;
          for (const Value& row : rows) {
            DIABLO_RETURN_IF_ERROR(
                ApplyChain(chain, 0, row, &tallies[p],
                           [&](const Value& v) -> Status {
                             fallback.values.Append(v);
                             return Status::OK();
                           }));
          }
          tallies[p].columnar_rows_fallback +=
              static_cast<int64_t>(rows.size());
          batches[p] = std::move(fallback);
          return Status::OK();
        };
        ColumnBatch batch;
        batch.pairs = on_value;
        for (const Value& row : rows) {
          if (on_value) {
            if (!row.is_tuple() || row.tuple().size() != 2) return replay();
            batch.keys.push_back(row.tuple()[0]);
            batch.values.Append(row.tuple()[1]);
          } else {
            batch.values.Append(row);
          }
        }
        std::vector<uint8_t> live(batch.size(), 1);
        for (size_t i = 0; i < chain.size(); ++i) {
          const ColumnKernel& k = *chain[i].kernel;
          const bool handled =
              chain[i].kind == FusedOp::Kind::kFilter
                  ? ApplyFilterKernel(k.op, k.operand, batch.values, &live)
                  : ApplyMapKernel(k.op, k.operand, live, &batch.values);
          if (!handled) return replay();
          if (i + 1 < chain.size()) {
            // Interior boundary: record what the boxed tally would —
            // the surviving row count and the first survivor's size.
            int64_t alive = 0;
            size_t first = live.size();
            for (size_t r = 0; r < live.size(); ++r) {
              if (live[r] == 0) continue;
              if (first == live.size()) first = r;
              ++alive;
            }
            tallies[p].rows[i] = alive;
            tallies[p].sample_bytes[i] =
                first == live.size() ? 0 : batch.RowAt(first).SerializedBytes();
          }
        }
        batch.Compact(live);
        tallies[p].columnar_batches += 1;
        batches[p] = std::move(batch);
        return Status::OK();
      },
      rec, &slots);
  if (!st.ok()) return st;
  for (int p = 0; p < n; ++p) batches[p].EmitRows(&(*out)[p]);
  return Status::OK();
}

StatusOr<std::vector<HashedVec>> Engine::ShuffleCore(
    int stage, const std::vector<int64_t>& task_work,
    const std::function<Status(int, const EmitFn&)>& produce,
    int64_t* shuffle_bytes, std::vector<int64_t>* dest_bytes,
    std::vector<ChainTally>* tallies, StageRecovery* rec) {
  const int out_parts = config_.num_partitions;
  const int n = static_cast<int>(task_work.size());
  // buckets[src][dst]
  std::vector<std::vector<HashedVec>> buckets(
      n, std::vector<HashedVec>(out_parts));
  std::vector<int64_t> moved_bytes(n, 0);
  // bucket_bytes[src][dst]: bytes each source task shipped per
  // destination, reduced into `dest_bytes` after the wave.
  std::vector<std::vector<int64_t>> bucket_bytes(
      n, std::vector<int64_t>(out_parts, 0));
  const bool serialize = config_.serialize_shuffles;
  const bool inject = config_.faults.enabled();
  WaveSlots slots;
  slots.buckets = &buckets;
  slots.nums = &moved_bytes;
  slots.num_vecs = &bucket_bytes;
  slots.tallies = tallies;
  Status st = RunTaskWave(
      "shuffle", stage, task_work,
      [&](int p, int attempt) -> Status {
        // Restartable: wipe any partial output of a failed attempt (and
        // re-run the producer, fused chain included).
        buckets[p].assign(out_parts, HashedVec());
        // Reserve from the source row count: keys spread roughly
        // uniformly, so each destination sees about rows/out_parts of
        // this task's output.
        const size_t hint =
            static_cast<size_t>(task_work[p]) / static_cast<size_t>(out_parts) +
            1;
        for (HashedVec& bucket : buckets[p]) bucket.reserve(hint);
        moved_bytes[p] = 0;
        bucket_bytes[p].assign(out_parts, 0);
        int64_t row_idx = 0;
        // Single-pass scatter: each produced row arrives with its key
        // hash (computed exactly once by the producer) and is appended
        // to its destination buffer hash-first, so the reduce side
        // never rehashes. `row_idx` numbers the scattered rows, so
        // corruption coordinates are independent of how the row was
        // produced (fused or pre-combined).
        auto scatter = [&](size_t hash, const Value& row) -> Status {
          const int dst = HashDestination(hash, out_parts);
          // Rows that stay on the same simulated node are still
          // accounted: with many workers almost every row crosses the
          // network, so we charge all of them (Spark's shuffle write
          // does the same).
          if (serialize) {
            // Ship the encoded bytes, exactly as a real shuffle would.
            std::string wire = Serialize(row);
            moved_bytes[p] += static_cast<int64_t>(wire.size());
            bucket_bytes[p][dst] += static_cast<int64_t>(wire.size());
            if (inject &&
                injector_.CorruptShuffleRow(stage, p, attempt, row_idx)) {
              // Flip one byte in flight. The decoder must survive the
              // damaged buffer (hardened in runtime/serialize.cc); the
              // simulated checksum then flags the payload and the task
              // is relaunched.
              wire[injector_.CorruptByteIndex(stage, p, row_idx,
                                              wire.size())] ^= 0x2d;
              StatusOr<Value> decoded = Deserialize(wire);
              (void)decoded;
              return Status::TaskLost(
                  StrCat("shuffle payload of stage #", stage, " task ", p,
                         " corrupted in flight (row ", row_idx, ")"));
            }
            DIABLO_ASSIGN_OR_RETURN(Value decoded, Deserialize(wire));
            buckets[p][dst].push_back(HashedRow{hash, std::move(decoded)});
          } else {
            const int64_t approx = row.SerializedBytes();
            moved_bytes[p] += approx;
            bucket_bytes[p][dst] += approx;
            buckets[p][dst].push_back(HashedRow{hash, row});
          }
          ++row_idx;
          return Status::OK();
        };
        return produce(p, scatter);
      },
      rec, &slots);
  if (!st.ok()) return st;
  TallyShuffleBytes(moved_bytes, bucket_bytes, out_parts, shuffle_bytes,
                    dest_bytes);
  std::vector<HashedVec> out(out_parts);
  for (int dst = 0; dst < out_parts; ++dst) {
    size_t total = 0;
    for (int src = 0; src < n; ++src) total += buckets[src][dst].size();
    out[dst].reserve(total);
    for (int src = 0; src < n; ++src) {
      for (HashedRow& v : buckets[src][dst]) out[dst].push_back(std::move(v));
    }
  }
  return out;
}

StatusOr<std::vector<HashedVec>> Engine::ShuffleWave(const Dataset& in,
                                                     int stage,
                                                     int64_t* shuffle_bytes,
                                                     StageRecovery* rec,
                                                     StageStats* stats) {
  const FusedChain& chain = in.chain();
  std::vector<ChainTally> tallies(in.num_partitions());
  auto result = ShuffleCore(
      stage, RowCounts(in),
      [&](int p, const EmitFn& emit) -> Status {
        tallies[p].Reset(chain.size());
        // Vectorized scatter: buffer the produced rows with their keys
        // in a column, hash the whole key column in one pass (cached
        // dictionary hashes for strings, HashColumn bit-identical to
        // per-row Value::Hash; keys that don't columnarize demote the
        // column to boxed and hash row by row), then emit in the
        // original order.
        ValueVec rows;
        Column keycol;
        rows.reserve(in.partition(p).size());
        for (const Value& row : in.partition(p)) {
          DIABLO_RETURN_IF_ERROR(ApplyChain(
              chain, 0, row, &tallies[p], [&](const Value& v) -> Status {
                DIABLO_ASSIGN_OR_RETURN(const Value* key, RowKey(v));
                keycol.Append(*key);
                rows.push_back(v);
                return Status::OK();
              }));
        }
        std::vector<size_t> hashes;
        HashColumn(keycol, &hashes);
        if (!rows.empty()) {
          if (keycol.tag() == ColumnTag::kBoxed) {
            tallies[p].columnar_rows_fallback +=
                static_cast<int64_t>(rows.size());
          } else {
            tallies[p].columnar_batches += 1;
          }
        }
        for (size_t i = 0; i < rows.size(); ++i) {
          DIABLO_RETURN_IF_ERROR(emit(hashes[i], rows[i]));
        }
        return Status::OK();
      },
      shuffle_bytes, stats != nullptr ? &stats->partition_bytes : nullptr,
      &tallies, rec);
  if (result.ok() && stats != nullptr) {
    stats->fused_ops += static_cast<int64_t>(chain.size());
    for (const ChainTally& t : tallies) t.MergeInto(stats);
  }
  return result;
}

StatusOr<std::vector<HashedVec>> Engine::ShuffleHashed(
    const std::vector<HashedVec>& in, int stage, int64_t* shuffle_bytes,
    StageRecovery* rec, StageStats* stats) {
  return ShuffleCore(
      stage, RowCounts(in),
      [&](int p, const EmitFn& emit) -> Status {
        for (const HashedRow& hr : in[p]) {
          DIABLO_RETURN_IF_ERROR(emit(hr.hash, hr.row));
        }
        return Status::OK();
      },
      shuffle_bytes, stats != nullptr ? &stats->partition_bytes : nullptr,
      nullptr, rec);
}

StatusOr<std::vector<TypedRows>> Engine::ShuffleTyped(
    const std::vector<TypedRows>& in, int stage, int64_t* shuffle_bytes,
    StageRecovery* rec, StageStats* stats) {
  const int out_parts = config_.num_partitions;
  const int n = static_cast<int>(in.size());
  std::vector<int64_t> task_work(n, 0);
  TypedKeyMode kmode = TypedKeyMode::kNone;
  TypedPayloadMode pmode = TypedPayloadMode::kNone;
  for (int p = 0; p < n; ++p) {
    task_work[p] = static_cast<int64_t>(in[p].size());
    if (in[p].size() > 0 && kmode == TypedKeyMode::kNone) {
      kmode = in[p].key_mode;
      pmode = in[p].payload_mode;
    }
  }
  // buckets[src][dst], plus the same byte accounting ShuffleCore keeps:
  // every scattered entry is charged what its boxed pair row would have
  // weighed on the wire.
  std::vector<std::vector<TypedRows>> buckets(n,
                                              std::vector<TypedRows>(out_parts));
  std::vector<int64_t> moved_bytes(n, 0);
  std::vector<std::vector<int64_t>> bucket_bytes(
      n, std::vector<int64_t>(out_parts, 0));
  WaveSlots slots;
  slots.nums = &moved_bytes;
  slots.num_vecs = &bucket_bytes;
  Status st = RunTaskWave(
      "shuffle", stage, task_work,
      [&](int p, int) -> Status {
        const TypedRows& src = in[p];
        buckets[p].assign(out_parts, TypedRows());
        const size_t hint =
            src.size() / static_cast<size_t>(out_parts) + 1;
        for (TypedRows& bucket : buckets[p]) {
          bucket.key_mode = src.key_mode;
          bucket.payload_mode = src.payload_mode;
          bucket.hashes.reserve(hint);
          bucket.key_bits.reserve(hint);
          if (src.payload_mode == TypedPayloadMode::kInt64) {
            bucket.pay_ints.reserve(hint);
          } else {
            bucket.pay_doubles.reserve(hint);
          }
        }
        moved_bytes[p] = 0;
        bucket_bytes[p].assign(out_parts, 0);
        const bool ints = src.payload_mode == TypedPayloadMode::kInt64;
        for (size_t i = 0; i < src.size(); ++i) {
          const int dst = HashDestination(src.hashes[i], out_parts);
          TypedRows& bucket = buckets[p][dst];
          // String keys keep their SOURCE dictionary code through the
          // scatter; the driver-side concatenation below re-interns
          // them into the destination's dictionary.
          bucket.hashes.push_back(src.hashes[i]);
          bucket.key_bits.push_back(src.key_bits[i]);
          if (ints) {
            bucket.pay_ints.push_back(src.pay_ints[i]);
          } else {
            bucket.pay_doubles.push_back(src.pay_doubles[i]);
          }
          const int64_t entry_bytes = src.EntryBytesAt(i);
          moved_bytes[p] += entry_bytes;
          bucket_bytes[p][dst] += entry_bytes;
        }
        return Status::OK();
      },
      rec, &slots);
  if (!st.ok()) return st;
  TallyShuffleBytes(moved_bytes, bucket_bytes, out_parts, shuffle_bytes,
                    stats != nullptr ? &stats->partition_bytes : nullptr);
  // Concatenate source-order (sources ascending, each pre-sorted by
  // key) — exactly the arrival order of the boxed shuffle, so every
  // per-key fold order downstream is identical. String keys re-intern
  // into one dictionary per destination (first-occurrence order, Value
  // payloads shared): code equality then coincides with key equality,
  // which is what the reduce side's code-keyed accumulator relies on.
  std::vector<TypedRows> out(out_parts);
  for (int dst = 0; dst < out_parts; ++dst) {
    TypedRows& d = out[dst];
    d.key_mode = kmode;
    d.payload_mode = pmode;
    size_t total = 0;
    for (int src = 0; src < n; ++src) total += buckets[src][dst].size();
    d.hashes.reserve(total);
    d.key_bits.reserve(total);
    if (pmode == TypedPayloadMode::kInt64) {
      d.pay_ints.reserve(total);
    } else {
      d.pay_doubles.reserve(total);
    }
    std::unordered_map<std::string, uint32_t> remap;
    for (int src = 0; src < n; ++src) {
      TypedRows& b = buckets[src][dst];
      d.hashes.insert(d.hashes.end(), b.hashes.begin(), b.hashes.end());
      if (kmode == TypedKeyMode::kString) {
        const std::vector<Value>& src_dict = in[src].dict_values;
        const std::vector<size_t>& src_dict_hashes = in[src].dict_hashes;
        for (int64_t code_bits : b.key_bits) {
          const size_t code = static_cast<size_t>(code_bits);
          auto [it, inserted] = remap.try_emplace(
              src_dict[code].AsString(),
              static_cast<uint32_t>(d.dict_values.size()));
          if (inserted) {
            d.dict_values.push_back(src_dict[code]);
            d.dict_hashes.push_back(src_dict_hashes[code]);
          }
          d.key_bits.push_back(static_cast<int64_t>(it->second));
        }
      } else {
        d.key_bits.insert(d.key_bits.end(), b.key_bits.begin(),
                          b.key_bits.end());
      }
      d.pay_ints.insert(d.pay_ints.end(), b.pay_ints.begin(),
                        b.pay_ints.end());
      d.pay_doubles.insert(d.pay_doubles.end(), b.pay_doubles.begin(),
                           b.pay_doubles.end());
    }
  }
  return out;
}

StatusOr<Dataset> Engine::GroupByKey(const Dataset& in,
                                     const std::string& label) {
  ScopedSpan stage_span(trace(), SpanKind::kStage, label);
  const int shuffle_stage = NextStageId();
  const int reduce_stage = NextStageId();
  stage_span.SetStageId(shuffle_stage);
  StageRecovery rec;
  StageStats stats;
  DIABLO_ASSIGN_OR_RETURN(Dataset src, RecoverInput(in, shuffle_stage, 0, &rec));
  int64_t bytes = 0;
  DIABLO_ASSIGN_OR_RETURN(std::vector<HashedVec> shuffled,
                          ShuffleWave(src, shuffle_stage, &bytes, &rec, &stats));
  // Skew mitigation (DESIGN.md §17): a destination far above the mean
  // row count is split into contiguous row CHUNKS, each grouped by its
  // own virtual task; the driver then k-way merges the chunks' sorted
  // (key, bag) rows, concatenating a straddling key's partial bags in
  // chunk order — which IS arrival order, so the merged bag is
  // byte-identical to what the unsplit task would have built.
  const std::vector<int64_t> shuffled_counts = RowCounts(shuffled);
  const SaltPlan salt =
      PlanSalt(shuffled_counts, config_.skew, /*splittable=*/true);
  EmitSkewSalting(config_.events, reduce_stage, "reduce", salt);
  const int num_virtual = static_cast<int>(salt.task_of.size());
  std::vector<int64_t> sub_work(num_virtual);
  for (int t = 0; t < num_virtual; ++t) {
    const int p = salt.task_of[t];
    const auto [lo, hi] = ChunkRange(shuffled[p].size(), salt.index_of[t],
                                     salt.fanout[p]);
    sub_work[t] = static_cast<int64_t>(hi - lo);
  }
  std::vector<ValueVec> sub_out(num_virtual);
  std::vector<ChainTally> reduce_tallies(num_virtual);
  WaveSlots reduce_slots;
  reduce_slots.rows = &sub_out;
  reduce_slots.tallies = &reduce_tallies;
  Status st = RunTaskWave(
      label, reduce_stage, sub_work,
      [&](int t, int) -> Status {
        reduce_tallies[t].Reset(0);
        const int p = salt.task_of[t];
        const auto [lo, hi] =
            ChunkRange(shuffled[p].size(), salt.index_of[t], salt.fanout[p]);
        sub_out[t] = GroupedRows(shuffled[p], lo, hi,
                                 &reduce_tallies[t].accumulator_bytes);
        return Status::OK();
      },
      &rec, &reduce_slots);
  if (!st.ok()) return st;
  int64_t salted_keys = 0;
  std::optional<StageStats> unsalt;
  std::vector<ValueVec> out = Unsalt(
      salt, std::move(sub_out),
      [&](std::vector<ValueVec> parts) {
        return MergeSortedBags(std::move(parts), &salted_keys);
      },
      label, &unsalt);
  stats.label = FusedStageLabel(src.chain(), label);
  stats.wide = true;
  stats.map_work = RowCounts(src);
  stats.reduce_work = sub_work;
  stats.shuffle_bytes = bytes;
  stats.partition_rows = RowCounts(out);
  stats.salted_keys = salted_keys;
  stats.salt_fanout = salt.extra;
  for (const ChainTally& t : reduce_tallies) t.MergeInto(&stats);
  for (int64_t c : shuffled_counts) stats.hash_agg_rows += c;
  for (int64_t c : stats.partition_rows) stats.hash_agg_keys += c;
  FinishStage(std::move(stats), rec);
  if (unsalt) RecordPlannerStage(std::move(*unsalt));
  return Dataset(
      std::move(out),
      WideLineage("groupByKey", label, {src},
                  [](const std::vector<HashedVec>& rows) -> StatusOr<ValueVec> {
                    return GroupedRows(rows[0], 0, rows[0].size(), nullptr);
                  }));
}

StatusOr<Dataset> Engine::ReduceByKeyImpl(const Dataset& in, const ReduceFn& fn,
                                          const BinOp* native_op,
                                          const ColumnSchema& schema,
                                          const std::string& label) {
  ScopedSpan stage_span(trace(), SpanKind::kStage, label);
  const int combine_stage = NextStageId();
  const int shuffle_stage = NextStageId();
  const int reduce_stage = NextStageId();
  stage_span.SetStageId(combine_stage);
  StageRecovery rec;
  StageStats stats;
  DIABLO_ASSIGN_OR_RETURN(Dataset src, RecoverInput(in, combine_stage, 0, &rec));
  const FusedChain& chain = src.chain();
  // Typed aggregation: a built-in op whose key/value kinds columnarize
  // folds with native arithmetic in the same arrival order —
  // bit-identical results, no per-row Value allocation. The plan-time schema only ever skips the attempt (a
  // definitely non-numeric value); kUnknown means detect from the data,
  // and a deviating row mid-stream spills to the boxed accumulator.
  const bool try_typed =
      native_op != nullptr && TypedReduceAccumulator::SupportsOp(*native_op) &&
      schema.value != ColumnTag::kString && schema.value != ColumnTag::kBool;
  // Map-side combine (like Spark): fold each input partition first so the
  // shuffle only moves one pair per (partition, key). Any pending fused
  // chain runs element-by-element straight into the combine. The typed
  // and boxed accumulators both emit the combined pairs in key order, so
  // the merge side's arrival order — and with it every per-key float
  // fold order — is identical whichever accumulator runs.
  std::vector<HashedVec> shuffled;
  std::vector<TypedRows> typed_shuffled;
  bool use_typed_shuffle = false;
  int64_t bytes = 0;
  Status st;
  // When no boxed rows are needed between combine and reduce — no wire
  // format, no fault injection (row-level corruption coordinates name
  // boxed rows), no remote backend — the combine output can stay typed
  // across the shuffle: no intermediate pair row is ever allocated.
  const bool typed_shuffle_ok =
      try_typed && !config_.serialize_shuffles && !config_.faults.enabled() &&
      config_.remote == nullptr;
  // Combine-side skew mitigation (DESIGN.md §17): an oversized SOURCE
  // partition is combined as contiguous row chunks by independent
  // virtual tasks, so one giant input partition no longer serializes
  // the combine wave. The chunk partials of a key re-merge in the
  // normal reduce stage, so the split is only taken when that re-merge
  // is exact under ANY grouping: a typed int64 fold of an associative
  // built-in op (+, *, min, max are bit-associative on int64). The
  // typed_shuffle_ok conjunct also keeps splits away from fault
  // injection, the wire format, and the remote backend.
  const bool combine_splittable =
      typed_shuffle_ok && schema.value == ColumnTag::kInt64 &&
      native_op != nullptr &&
      (*native_op == BinOp::kAdd || *native_op == BinOp::kMul ||
       *native_op == BinOp::kMin || *native_op == BinOp::kMax);
  const SaltPlan combine_salt =
      PlanSalt(RowCounts(src), config_.skew, combine_splittable);
  EmitSkewSalting(config_.events, combine_stage, "combine", combine_salt);
  const int num_combine = static_cast<int>(combine_salt.task_of.size());
  std::vector<int64_t> combine_work(num_combine);
  for (int t = 0; t < num_combine; ++t) {
    const int p = combine_salt.task_of[t];
    const auto [lo, hi] =
        ChunkRange(src.partition(p).size(), combine_salt.index_of[t],
                   combine_salt.fanout[p]);
    combine_work[t] = static_cast<int64_t>(hi - lo);
  }
  std::vector<ChainTally> tallies(num_combine);
  std::vector<HashedVec> combined(num_combine);
  std::vector<TypedRows> typed_combined(num_combine);
  // Folds rows [lo, hi) of source partition p into output slot `slot`
  // exactly as the unsplit combine folds a whole partition: wave
  // tasks call it with their chunk, and the dirty-chunk fallback
  // below re-runs it over a full partition.
  auto combine_range = [&](int slot, int p, size_t lo, size_t hi) -> Status {
    combined[slot].clear();
    tallies[slot].Reset(chain.size());
    KeyedAccumulator<Value> acc(hi - lo);
    std::optional<TypedReduceAccumulator> typed;
    if (try_typed) typed.emplace(*native_op, hi - lo);
    int64_t boxed_rows = 0;
    auto combine = [&](const Value& row) -> Status {
      if (typed.has_value()) {
        if (typed->Add(row)) return Status::OK();
        // Deviating row: replay the typed state into the boxed
        // accumulator (insertion order, hashes and payloads
        // preserved) and continue boxed from this row.
        typed->SpillTo(&acc);
        typed.reset();
      }
      if (try_typed) ++boxed_rows;
      DIABLO_ASSIGN_OR_RETURN(const Value* key, RowKey(row));
      return FoldValue(&acc, fn, key->Hash(), *key, row.tuple()[1]);
    };
    const ValueVec& part = src.partition(p);
    if (typed.has_value() && chain.empty()) {
      // No pending fused chain: fold the rows into the typed
      // accumulator directly, skipping the per-row chain dispatch.
      // A deviating row drops to the boxed `combine` from there.
      size_t i = lo;
      for (; i < hi; ++i) {
        if (!typed->Add(part[i])) break;
      }
      for (; i < hi; ++i) {
        DIABLO_RETURN_IF_ERROR(combine(part[i]));
      }
    } else {
      for (size_t i = lo; i < hi; ++i) {
        DIABLO_RETURN_IF_ERROR(
            ApplyChain(chain, 0, part[i], &tallies[slot], combine));
      }
    }
    // Task-level accumulator watermark (the boxed accumulator always
    // reserves its capacity, so both live footprints are summed);
    // ChainTally carries it across the dist wire into
    // StageStats::accumulator_bytes_peak.
    tallies[slot].accumulator_bytes = static_cast<int64_t>(
        acc.MemoryBytes() + (typed.has_value() ? typed->MemoryBytes() : 0));
    if (typed.has_value()) {
      typed_combined[slot] = TypedRows();
      if (!typed_shuffle_ok || !typed->EmitSortedTyped(&typed_combined[slot])) {
        typed->EmitSortedHashed(&combined[slot]);
      }
      if (typed->rows() > 0) tallies[slot].columnar_batches += 1;
    } else {
      combined[slot] = CombinedRows(&acc);
    }
    tallies[slot].columnar_rows_fallback += boxed_rows;
    return Status::OK();
  };
  WaveSlots combine_slots;
  combine_slots.hashed = &combined;
  combine_slots.tallies = &tallies;
  st = RunTaskWave(
      label + ".combine", combine_stage, combine_work,
      [&](int t, int) -> Status {
        const int p = combine_salt.task_of[t];
        const auto [lo, hi] =
            ChunkRange(src.partition(p).size(), combine_salt.index_of[t],
                       combine_salt.fanout[p]);
        return combine_range(t, p, lo, hi);
      },
      &rec, &combine_slots);
  if (!st.ok()) return st;
  // A split is only exact while every chunk of the partition stayed
  // on the typed int64 path. A chunk that bounced — boxed rows, or a
  // payload that turned out non-int64 at runtime — re-runs its whole
  // source partition unsplit on the driver (rare by construction: the
  // plan-time schema already claimed int64), zeroing the sibling
  // chunk slots so the empty chunks contribute nothing downstream.
  if (combine_salt.active) {
    for (int p = 0; p < src.num_partitions(); ++p) {
      if (combine_salt.fanout[p] == 1) continue;
      bool clean = true;
      for (int s = 0; s < combine_salt.fanout[p] && clean; ++s) {
        const int t = combine_salt.first[p] + s;
        if (!combined[t].empty() ||
            (typed_combined[t].size() > 0 &&
             typed_combined[t].payload_mode != TypedPayloadMode::kInt64)) {
          clean = false;
        }
      }
      if (clean) continue;
      for (int s = 1; s < combine_salt.fanout[p]; ++s) {
        const int t = combine_salt.first[p] + s;
        combined[t].clear();
        typed_combined[t] = TypedRows();
        tallies[t].Reset(chain.size());
      }
      DIABLO_RETURN_IF_ERROR(combine_range(combine_salt.first[p], p, 0,
                                           src.partition(p).size()));
    }
  }
  stats.fused_ops += static_cast<int64_t>(chain.size());
  for (const ChainTally& t : tallies) t.MergeInto(&stats);
  for (int64_t c : RowCounts(src)) stats.hash_agg_rows += c;
  // The typed shuffle needs every non-empty combine output typed with
  // one key/payload shape; a spilled or string-keyed partition drops
  // the whole operator back to boxed rows (the typed ones re-box).
  if (typed_shuffle_ok) {
    use_typed_shuffle = true;
    TypedKeyMode kmode = TypedKeyMode::kNone;
    TypedPayloadMode pmode = TypedPayloadMode::kNone;
    for (int t = 0; t < num_combine; ++t) {
      if (!combined[t].empty()) {
        use_typed_shuffle = false;
        break;
      }
      const TypedRows& tc = typed_combined[t];
      if (tc.size() == 0) continue;
      if (kmode == TypedKeyMode::kNone) {
        kmode = tc.key_mode;
        pmode = tc.payload_mode;
      } else if (tc.key_mode != kmode || tc.payload_mode != pmode) {
        use_typed_shuffle = false;
        break;
      }
    }
    if (!use_typed_shuffle) {
      for (int t = 0; t < num_combine; ++t) {
        typed_combined[t].EmitHashed(&combined[t]);
        typed_combined[t] = TypedRows();
      }
    }
  }
  int64_t combined_keys = 0;
  for (int t = 0; t < num_combine; ++t) {
    combined_keys += static_cast<int64_t>(combined[t].size()) +
                     static_cast<int64_t>(typed_combined[t].size());
  }
  stats.hash_agg_keys += combined_keys;
  // The combined pairs carry their memoized key hashes straight into
  // the scatter: no key is hashed twice anywhere in this operator.
  if (use_typed_shuffle) {
    DIABLO_ASSIGN_OR_RETURN(typed_shuffled,
                            ShuffleTyped(typed_combined, shuffle_stage,
                                         &bytes, &rec, &stats));
  } else {
    DIABLO_ASSIGN_OR_RETURN(shuffled,
                            ShuffleHashed(combined, shuffle_stage, &bytes,
                                          &rec, &stats));
  }
  const std::vector<int64_t> shuffled_counts =
      use_typed_shuffle ? RowCounts(typed_shuffled) : RowCounts(shuffled);
  // Reduce-side skew mitigation (DESIGN.md §17): an oversized
  // DESTINATION is split into hash STRIPES (RemixHash % k), each folded
  // by its own virtual task. Every row of a key shares the key's hash
  // and hence its stripe — no key is ever split — and the stable stripe
  // pass preserves arrival order within each stripe, so per-key fold
  // order is untouched for ANY reduce function. The driver's un-salt is
  // a plain sorted merge of disjoint key sets.
  const SaltPlan reduce_salt =
      PlanSalt(shuffled_counts, config_.skew, /*splittable=*/true);
  EmitSkewSalting(config_.events, reduce_stage, "reduce", reduce_salt);
  const int num_reduce = static_cast<int>(reduce_salt.task_of.size());
  std::vector<TypedRows> typed_parts;
  std::vector<HashedVec> hashed_parts;
  if (use_typed_shuffle) {
    typed_parts.resize(num_reduce);
  } else {
    hashed_parts.resize(num_reduce);
  }
  for (size_t p = 0; p < shuffled_counts.size(); ++p) {
    const int f = reduce_salt.fanout[p];
    const int base = reduce_salt.first[p];
    if (use_typed_shuffle) {
      if (f == 1) {
        typed_parts[base] = std::move(typed_shuffled[p]);
      } else {
        std::vector<TypedRows> stripes = StripeTyped(typed_shuffled[p], f);
        for (int s = 0; s < f; ++s) {
          typed_parts[base + s] = std::move(stripes[s]);
        }
        typed_shuffled[p] = TypedRows();
      }
    } else {
      if (f == 1) {
        hashed_parts[base] = std::move(shuffled[p]);
      } else {
        std::vector<HashedVec> stripes =
            StripeHashed(std::move(shuffled[p]), f);
        for (int s = 0; s < f; ++s) {
          hashed_parts[base + s] = std::move(stripes[s]);
        }
      }
    }
  }
  std::vector<int64_t> reduce_work(num_reduce);
  for (int t = 0; t < num_reduce; ++t) {
    reduce_work[t] = use_typed_shuffle
                         ? static_cast<int64_t>(typed_parts[t].size())
                         : static_cast<int64_t>(hashed_parts[t].size());
  }
  std::vector<ValueVec> sub_out(num_reduce);
  std::vector<ChainTally> reduce_tallies(num_reduce);
  WaveSlots reduce_slots;
  reduce_slots.rows = &sub_out;
  reduce_slots.tallies = &reduce_tallies;
  st = RunTaskWave(
      label, reduce_stage, reduce_work,
      [&](int t, int) -> Status {
        sub_out[t].clear();
        reduce_tallies[t].Reset(0);
        if (use_typed_shuffle) {
          // Typed end-to-end: the shuffled arrays fold straight into a
          // typed accumulator — hash, raw key bits and payload, no
          // boxed row until the final sorted emit.
          const TypedRows& tr = typed_parts[t];
          TypedReduceAccumulator typed(*native_op, tr.size());
          typed.BeginTyped(tr.key_mode, tr.payload_mode, &tr.dict_values);
          const bool ints = tr.payload_mode == TypedPayloadMode::kInt64;
          for (size_t i = 0; i < tr.size(); ++i) {
            typed.AddHashedBits(tr.hashes[i], tr.key_bits[i],
                                ints ? tr.pay_ints[i] : 0,
                                ints ? 0.0 : tr.pay_doubles[i]);
          }
          reduce_tallies[t].accumulator_bytes =
              static_cast<int64_t>(typed.MemoryBytes());
          typed.EmitSortedRows(&sub_out[t]);
          if (typed.rows() > 0) reduce_tallies[t].columnar_batches += 1;
          return Status::OK();
        }
        const HashedVec& part = hashed_parts[t];
        KeyedAccumulator<Value> acc(part.size());
        std::optional<TypedReduceAccumulator> typed;
        if (try_typed) typed.emplace(*native_op, part.size());
        size_t i = 0;
        if (typed.has_value()) {
          // The hash crossed the shuffle with the row: trust it.
          for (; i < part.size(); ++i) {
            const HashedRow& hr = part[i];
            if (!typed->AddHashed(hr.hash, hr.row)) break;
          }
          if (i == part.size()) {
            reduce_tallies[t].accumulator_bytes = static_cast<int64_t>(
                acc.MemoryBytes() + typed->MemoryBytes());
            typed->EmitSortedRows(&sub_out[t]);
            if (typed->rows() > 0) reduce_tallies[t].columnar_batches += 1;
            return Status::OK();
          }
          typed->SpillTo(&acc);
        }
        if (try_typed) {
          reduce_tallies[t].columnar_rows_fallback +=
              static_cast<int64_t>(part.size() - i);
        }
        DIABLO_RETURN_IF_ERROR(FoldRows(part, i, fn, &acc));
        reduce_tallies[t].accumulator_bytes = static_cast<int64_t>(
            acc.MemoryBytes() + (typed.has_value() ? typed->MemoryBytes() : 0));
        sub_out[t] = ReducedRows(&acc);
        return Status::OK();
      },
      &rec, &reduce_slots);
  if (!st.ok()) return st;
  std::optional<StageStats> unsalt;
  std::vector<ValueVec> out =
      Unsalt(reduce_salt, std::move(sub_out), MergeSortedRows, label, &unsalt);
  for (const ChainTally& t : reduce_tallies) t.MergeInto(&stats);
  stats.label = FusedStageLabel(chain, label);
  stats.wide = true;
  stats.map_work = std::move(combine_work);
  stats.reduce_work = std::move(reduce_work);
  stats.shuffle_bytes = bytes;
  stats.partition_rows = RowCounts(out);
  // Stripe and chunk splits never fold one key in two sub-tasks (the
  // un-salt merges are over disjoint key sets; chunk partials re-merge
  // in the reduce stage itself), so salted_keys stays 0 here — only
  // groupByKey's bag-concat un-salt reports it.
  stats.salt_fanout = combine_salt.extra + reduce_salt.extra;
  for (int64_t c : shuffled_counts) stats.hash_agg_rows += c;
  for (int64_t c : stats.partition_rows) stats.hash_agg_keys += c;
  FinishStage(std::move(stats), rec);
  if (unsalt) RecordPlannerStage(std::move(*unsalt));
  // Recovery replays the boxed leg: each source partition's chain output
  // folds into the same key-sorted combine the forward boxed leg ships,
  // the restricted scatter routes it, and the reduce side folds each lost
  // destination's arrivals in order. Per-key fold order, and with it
  // every floating-point bit, matches the forward run.
  return Dataset(
      std::move(out),
      WideLineage(
          "reduceByKey", label, {src},
          [fn](const std::vector<HashedVec>& rows) -> StatusOr<ValueVec> {
            KeyedAccumulator<Value> acc(rows[0].size());
            DIABLO_RETURN_IF_ERROR(FoldRows(rows[0], 0, fn, &acc));
            return ReducedRows(&acc);
          },
          [fn](HashedVec rows) -> StatusOr<HashedVec> {
            KeyedAccumulator<Value> acc(rows.size());
            DIABLO_RETURN_IF_ERROR(FoldRows(rows, 0, fn, &acc));
            return CombinedRows(&acc);
          }));
}

StatusOr<Dataset> Engine::ReduceByKey(const Dataset& in, const ReduceFn& fn,
                                      const std::string& label) {
  return ReduceByKeyImpl(in, fn, nullptr, ColumnSchema(), label);
}

StatusOr<Dataset> Engine::ReduceByKey(const Dataset& in, BinOp op,
                                      const std::string& label,
                                      const ColumnSchema& schema) {
  return ReduceByKeyImpl(
      in,
      [op](const Value& a, const Value& b) { return EvalBinOp(op, a, b); },
      &op, schema, label);
}

StatusOr<Engine::CoShuffled> Engine::RecoverAndShuffleBoth(
    const Dataset& left, const Dataset& right, const std::string& label,
    int left_stage, int right_stage, StageRecovery* rec, StageStats* stats) {
  CoShuffled in;
  DIABLO_ASSIGN_OR_RETURN(in.left, RecoverInput(left, left_stage, 0, rec));
  DIABLO_ASSIGN_OR_RETURN(in.right, RecoverInput(right, left_stage, 1, rec));
  int64_t bytes_l = 0, bytes_r = 0;
  DIABLO_ASSIGN_OR_RETURN(
      in.ls, ShuffleWave(in.left, left_stage, &bytes_l, rec, stats));
  DIABLO_ASSIGN_OR_RETURN(
      in.rs, ShuffleWave(in.right, right_stage, &bytes_r, rec, stats));
  stats->label = FusedStageLabel(in.left.chain(),
                                 FusedStageLabel(in.right.chain(), label));
  stats->wide = true;
  stats->map_work = RowCounts(in.left);
  for (int64_t c : RowCounts(in.right)) stats->map_work.push_back(c);
  stats->shuffle_bytes = bytes_l + bytes_r;
  return in;
}

StatusOr<Dataset> Engine::Join(const Dataset& left, const Dataset& right,
                               const std::string& label) {
  ScopedSpan stage_span(trace(), SpanKind::kStage, label);
  const int left_stage = NextStageId();
  const int right_stage = NextStageId();
  const int join_stage = NextStageId();
  stage_span.SetStageId(left_stage);
  StageRecovery rec;
  StageStats stats;
  DIABLO_ASSIGN_OR_RETURN(CoShuffled in,
                          RecoverAndShuffleBoth(left, right, label, left_stage,
                                                right_stage, &rec, &stats));
  std::vector<ValueVec> out(in.ls.size());
  std::vector<int64_t> reduce_work(in.ls.size(), 0);
  WaveSlots join_slots;
  join_slots.rows = &out;
  join_slots.nums = &reduce_work;
  Status st = RunTaskWave(
      label, join_stage, RowCounts(in.ls),
      [&](int p, int) -> Status {
        out[p] = JoinedRows(in.ls[p], in.rs[p]);
        // One work unit per build row, probe row and output row.
        reduce_work[p] = static_cast<int64_t>(in.ls[p].size() +
                                              in.rs[p].size() + out[p].size());
        return Status::OK();
      },
      &rec, &join_slots);
  if (!st.ok()) return st;
  stats.reduce_work = std::move(reduce_work);
  stats.partition_rows = RowCounts(out);
  for (int64_t c : RowCounts(in.ls)) stats.hash_agg_rows += c;
  FinishStage(std::move(stats), rec);
  return Dataset(
      std::move(out),
      WideLineage("join", label, {in.left, in.right},
                  [](const std::vector<HashedVec>& rows) -> StatusOr<ValueVec> {
                    return JoinedRows(rows[0], rows[1]);
                  }));
}

StatusOr<Dataset> Engine::CoGroup(const Dataset& left, const Dataset& right,
                                  const std::string& label) {
  ScopedSpan stage_span(trace(), SpanKind::kStage, label);
  const int left_stage = NextStageId();
  const int right_stage = NextStageId();
  const int cogroup_stage = NextStageId();
  stage_span.SetStageId(left_stage);
  StageRecovery rec;
  StageStats stats;
  DIABLO_ASSIGN_OR_RETURN(CoShuffled in,
                          RecoverAndShuffleBoth(left, right, label, left_stage,
                                                right_stage, &rec, &stats));
  std::vector<ValueVec> out(in.ls.size());
  std::vector<int64_t> reduce_work(in.ls.size(), 0);
  WaveSlots cg_slots;
  cg_slots.rows = &out;
  cg_slots.nums = &reduce_work;
  Status st = RunTaskWave(
      label, cogroup_stage, RowCounts(in.ls),
      [&](int p, int) -> Status {
        reduce_work[p] =
            static_cast<int64_t>(in.ls[p].size() + in.rs[p].size());
        out[p] = CoGroupedRows(in.ls[p], in.rs[p]);
        return Status::OK();
      },
      &rec, &cg_slots);
  if (!st.ok()) return st;
  stats.reduce_work = std::move(reduce_work);
  stats.partition_rows = RowCounts(out);
  for (int64_t c : stats.reduce_work) stats.hash_agg_rows += c;
  for (int64_t c : stats.partition_rows) stats.hash_agg_keys += c;
  FinishStage(std::move(stats), rec);
  return Dataset(
      std::move(out),
      WideLineage("coGroup", label, {in.left, in.right},
                  [](const std::vector<HashedVec>& rows) -> StatusOr<ValueVec> {
                    return CoGroupedRows(rows[0], rows[1]);
                  }));
}

StatusOr<Dataset> Engine::Union(const Dataset& in_a, const Dataset& in_b) {
  ScopedSpan stage_span(trace(), SpanKind::kStage, "union");
  DIABLO_ASSIGN_OR_RETURN(Dataset a, Force(in_a));
  DIABLO_ASSIGN_OR_RETURN(Dataset b, Force(in_b));
  const int n = std::max(a.num_partitions(), b.num_partitions());
  std::vector<ValueVec> out(n);
  for (int p = 0; p < n; ++p) {
    size_t total = 0;
    if (p < a.num_partitions()) total += a.partition(p).size();
    if (p < b.num_partitions()) total += b.partition(p).size();
    out[p].reserve(total);
  }
  for (int p = 0; p < a.num_partitions(); ++p) {
    for (const Value& v : a.partition(p)) out[p].push_back(v);
  }
  for (int p = 0; p < b.num_partitions(); ++p) {
    for (const Value& v : b.partition(p)) out[p].push_back(v);
  }
  StageStats union_stats = NarrowStats("union", RowCounts(out));
  union_stats.partition_rows = RowCounts(out);
  FinishStage(std::move(union_stats), StageRecovery());
  auto lineage = MakeLineage(
      "union", "union", {a.lineage(), b.lineage()},
      [a, b](int p, int64_t* work) -> StatusOr<ValueVec> {
        ValueVec rebuilt;
        rebuilt.reserve(
            (p < a.num_partitions() ? a.partition(p).size() : 0) +
            (p < b.num_partitions() ? b.partition(p).size() : 0));
        if (p < a.num_partitions()) {
          *work += static_cast<int64_t>(a.partition(p).size());
          for (const Value& v : a.partition(p)) rebuilt.push_back(v);
        }
        if (p < b.num_partitions()) {
          *work += static_cast<int64_t>(b.partition(p).size());
          for (const Value& v : b.partition(p)) rebuilt.push_back(v);
        }
        return rebuilt;
      });
  return Dataset(std::move(out), std::move(lineage));
}

StatusOr<Dataset> Engine::Distinct(const Dataset& in,
                                   const std::string& label) {
  ScopedSpan stage_span(trace(), SpanKind::kStage, label);
  // Key each row by itself, shuffle, dedup per partition.
  DIABLO_ASSIGN_OR_RETURN(
      Dataset keyed,
      Map(in, [](const Value& v) -> StatusOr<Value> {
        return Value::MakePair(v, Value::MakeUnit());
      }, label + ".key"));
  const int shuffle_stage = NextStageId();
  const int dedup_stage = NextStageId();
  stage_span.SetStageId(shuffle_stage);
  StageRecovery rec;
  StageStats stats;
  DIABLO_ASSIGN_OR_RETURN(Dataset src,
                          RecoverInput(keyed, shuffle_stage, 0, &rec));
  int64_t bytes = 0;
  DIABLO_ASSIGN_OR_RETURN(std::vector<HashedVec> shuffled,
                          ShuffleWave(src, shuffle_stage, &bytes, &rec, &stats));
  std::vector<ValueVec> out(shuffled.size());
  WaveSlots dedup_slots;
  dedup_slots.rows = &out;
  Status st = RunTaskWave(
      label, dedup_stage, RowCounts(shuffled),
      [&](int p, int) -> Status {
        out[p] = DistinctRows(shuffled[p]);
        return Status::OK();
      },
      &rec, &dedup_slots);
  if (!st.ok()) return st;
  stats.label = FusedStageLabel(src.chain(), label);
  stats.wide = true;
  stats.map_work = RowCounts(src);
  stats.reduce_work = RowCounts(shuffled);
  stats.shuffle_bytes = bytes;
  stats.partition_rows = RowCounts(out);
  for (int64_t c : RowCounts(shuffled)) stats.hash_agg_rows += c;
  for (int64_t c : stats.partition_rows) stats.hash_agg_keys += c;
  FinishStage(std::move(stats), rec);
  return Dataset(
      std::move(out),
      WideLineage("distinct", label, {src},
                  [](const std::vector<HashedVec>& rows) -> StatusOr<ValueVec> {
                    return DistinctRows(rows[0]);
                  }));
}

StatusOr<Dataset> Engine::Checkpoint(const Dataset& in,
                                     const std::string& label) {
  ScopedSpan stage_span(trace(), SpanKind::kStage, label);
  const int stage = NextStageId();
  stage_span.SetStageId(stage);
  StageRecovery rec;
  DIABLO_ASSIGN_OR_RETURN(Dataset src, RecoverInput(in, stage, 0, &rec));
  const FusedChain& chain = src.chain();
  const int n = src.num_partitions();
  // The "write": each task serializes its partition to (simulated)
  // stable storage, running any pending fused chain straight into the
  // writer. Charged as a narrow stage whose shuffle_bytes are the bytes
  // written.
  std::vector<ValueVec> out(n);
  std::vector<int64_t> written(n, 0);
  std::vector<ChainTally> tallies(n);
  WaveSlots ckpt_slots;
  ckpt_slots.rows = &out;
  ckpt_slots.nums = &written;
  ckpt_slots.tallies = &tallies;
  Status st = RunTaskWave(
      label, stage, RowCounts(src),
      [&](int p, int) -> Status {
        out[p].clear();
        written[p] = 0;
        // The written rows are materialized (they become the durable
        // dataset), so only interior boundaries count as saved.
        tallies[p].Reset(chain.empty() ? 0 : chain.size() - 1);
        if (chain.empty()) {
          for (const Value& row : src.partition(p)) {
            written[p] += row.SerializedBytes();
          }
          return Status::OK();
        }
        out[p].reserve(src.partition(p).size());
        for (const Value& row : src.partition(p)) {
          DIABLO_RETURN_IF_ERROR(
              ApplyChain(chain, 0, row, &tallies[p],
                         [&](const Value& v) -> Status {
                           written[p] += v.SerializedBytes();
                           out[p].push_back(v);
                           return Status::OK();
                         }));
        }
        return Status::OK();
      },
      &rec, &ckpt_slots);
  if (!st.ok()) return st;
  int64_t total_bytes = 0;
  for (int64_t b : written) total_bytes += b;
  StageStats stats = NarrowStats(label, RowCounts(src));
  stats.shuffle_bytes = total_bytes;
  stats.fused_ops = static_cast<int64_t>(chain.size());
  for (const ChainTally& t : tallies) t.MergeInto(&stats);
  stats.partition_rows = chain.empty() ? RowCounts(src) : RowCounts(out);
  FinishStage(std::move(stats), rec);
  // Durable node: recoveries stop here, and lineage depth resets to 0.
  auto node = std::make_shared<LineageNode>();
  node->kind = "checkpoint";
  node->label = label;
  node->durable = true;
  node->parents = {src.lineage()};
  if (chain.empty()) return Dataset(src, std::move(node));
  return Dataset(std::move(out), std::move(node));
}

StatusOr<std::optional<Value>> Engine::Reduce(const Dataset& in,
                                              const ReduceFn& fn,
                                              const std::string& label) {
  return ReduceImpl(in, fn, nullptr, label);
}

StatusOr<std::optional<Value>> Engine::Reduce(const Dataset& in, BinOp op,
                                              const std::string& label) {
  ReduceFn fn = [op](const Value& a, const Value& b) {
    return EvalBinOp(op, a, b);
  };
  const bool typed = TypedFold::SupportsOp(op);
  return ReduceImpl(in, fn, typed ? &op : nullptr, label);
}

StatusOr<std::optional<Value>> Engine::ReduceImpl(const Dataset& in,
                                                  const ReduceFn& fn,
                                                  const BinOp* typed_op,
                                                  const std::string& label) {
  ScopedSpan stage_span(trace(), SpanKind::kStage, label);
  const int stage = NextStageId();
  stage_span.SetStageId(stage);
  StageRecovery rec;
  DIABLO_ASSIGN_OR_RETURN(Dataset src, RecoverInput(in, stage, 0, &rec));
  const FusedChain& chain = src.chain();
  // Per-partition partial reduce (with any pending fused chain folding
  // straight into the partial), then combine partials on the driver.
  // With `typed_op` each partial folds with native int64/double
  // arithmetic (TypedFold) in arrival order — bit-identical to
  // EvalBinOp, including the int->double promotion when a double
  // appears mid-fold. A row of any other kind converts the typed
  // partial to a boxed accumulator and continues with `fn`.
  std::vector<std::optional<Value>> partials(src.num_partitions());
  std::vector<ChainTally> tallies(src.num_partitions());
  WaveSlots reduce_slots;
  reduce_slots.partials = &partials;
  reduce_slots.tallies = &tallies;
  Status st = RunTaskWave(
      label, stage, RowCounts(src),
      [&](int p, int) -> Status {
        partials[p].reset();
        tallies[p].Reset(chain.size());
        std::optional<TypedFold> fold;
        if (typed_op != nullptr) fold.emplace(*typed_op);
        int64_t boxed_rows = 0;
        for (const Value& row : src.partition(p)) {
          DIABLO_RETURN_IF_ERROR(ApplyChain(
              chain, 0, row, &tallies[p],
              [&](const Value& v) -> Status {
                if (fold.has_value()) {
                  if (fold->Add(v)) return Status::OK();
                  if (!fold->empty()) partials[p] = fold->Result();
                  fold.reset();
                }
                ++boxed_rows;
                if (!partials[p].has_value()) {
                  partials[p] = v;
                } else {
                  DIABLO_ASSIGN_OR_RETURN(*partials[p], fn(*partials[p], v));
                }
                return Status::OK();
              }));
        }
        if (fold.has_value()) {
          if (fold->rows() > 0) tallies[p].columnar_batches += 1;
          if (!fold->empty()) partials[p] = fold->Result();
        } else if (typed_op != nullptr) {
          tallies[p].columnar_rows_fallback += boxed_rows;
        }
        return Status::OK();
      },
      &rec, &reduce_slots);
  if (!st.ok()) return st;
  StageStats stats = NarrowStats(label, RowCounts(src));
  stats.fused_ops = static_cast<int64_t>(chain.size());
  for (const ChainTally& t : tallies) t.MergeInto(&stats);
  FinishStage(std::move(stats), rec);
  std::optional<Value> acc;
  for (auto& part : partials) {
    if (!part.has_value()) continue;
    if (!acc.has_value()) {
      acc = std::move(part);
    } else {
      DIABLO_ASSIGN_OR_RETURN(*acc, fn(*acc, *part));
    }
  }
  return acc;
}

StatusOr<ValueVec> Engine::Collect(const Dataset& in) {
  DIABLO_ASSIGN_OR_RETURN(Dataset src, Force(in));
  ValueVec out;
  out.reserve(static_cast<size_t>(src.TotalRows()));
  for (const auto& part : src.partitions()) {
    for (const Value& v : part) out.push_back(v);
  }
  return out;
}

StatusOr<Value> Engine::First(const Dataset& in) {
  DIABLO_ASSIGN_OR_RETURN(Dataset src, Force(in));
  for (const auto& part : src.partitions()) {
    if (!part.empty()) return part[0];
  }
  return Status::RuntimeError("First() on an empty dataset");
}

StatusOr<int64_t> Engine::Count(const Dataset& in) {
  ScopedSpan stage_span(trace(), SpanKind::kStage, "count");
  DIABLO_ASSIGN_OR_RETURN(Dataset src, Force(in));
  StageStats count_stats = NarrowStats("count", RowCounts(src));
  count_stats.partition_rows = RowCounts(src);
  FinishStage(std::move(count_stats), StageRecovery());
  return src.TotalRows();
}

}  // namespace diablo::runtime
