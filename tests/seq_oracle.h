// Sequential oracle for the engine property tests: computes the expected
// output of an engine program with plain loops over the input rows and
// std::map, never touching the engine. It follows the engine's
// documented output layout, so engine results can be compared with it
// byte for byte:
//  - Engine::Parallelize cuts the input into contiguous chunks;
//  - narrow operators keep each chunk's row order;
//  - reduceByKey folds each chunk in arrival order (the map-side
//    combine), then merges the chunk partials in chunk order;
//  - a keyed result row lands in partition hash(key) % partitions,
//    keys ascending within a partition, and Collect concatenates the
//    partitions in order.

#ifndef DIABLO_TESTS_SEQ_ORACLE_H_
#define DIABLO_TESTS_SEQ_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <optional>
#include <vector>

#include "runtime/operators.h"
#include "runtime/value.h"

namespace diablo::runtime::oracle {

/// Engine::Parallelize's split of `rows` into `parts` contiguous chunks.
inline std::vector<ValueVec> Chunks(const ValueVec& rows, int parts) {
  std::vector<ValueVec> chunks(static_cast<size_t>(parts));
  const size_t n = rows.size();
  for (int p = 0; p < parts; ++p) {
    const size_t lo = n * static_cast<size_t>(p) / static_cast<size_t>(parts);
    const size_t hi =
        n * static_cast<size_t>(p + 1) / static_cast<size_t>(parts);
    chunks[p].assign(rows.begin() + static_cast<std::ptrdiff_t>(lo),
                     rows.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return chunks;
}

inline ValueVec Concat(const std::vector<ValueVec>& chunks) {
  ValueVec out;
  for (const ValueVec& c : chunks) out.insert(out.end(), c.begin(), c.end());
  return out;
}

/// `fn(a, b)` for a built-in operator; the oracle's inputs never fail.
inline Value Apply(BinOp op, const Value& a, const Value& b) {
  return *EvalBinOp(op, a, b);
}

/// Collect order of a keyed result: `make_row(key, payload)` for every
/// entry, placed in partition hash(key) % parts, keys ascending within
/// each partition.
template <typename T, typename MakeRow>
ValueVec HashLayout(const std::map<Value, T>& by_key, int parts,
                    MakeRow make_row) {
  std::vector<ValueVec> out(static_cast<size_t>(parts));
  for (const auto& [key, payload] : by_key) {
    out[key.Hash() % static_cast<size_t>(parts)].push_back(
        make_row(key, payload));
  }
  return Concat(out);
}

/// (key, value) layout of a reduceByKey result.
inline ValueVec PairLayout(const std::map<Value, Value>& by_key, int parts) {
  return HashLayout(by_key, parts, [](const Value& k, const Value& v) {
    return Value::MakePair(k, v);
  });
}

/// reduceByKey over (key, value) rows: each chunk folds in arrival
/// order, then the partials fold in chunk order.
inline std::map<Value, Value> ReduceByKey(const std::vector<ValueVec>& chunks,
                                          BinOp op) {
  std::map<Value, Value> total;
  for (const ValueVec& chunk : chunks) {
    std::map<Value, Value> partial;
    for (const Value& row : chunk) {
      const Value& k = row.tuple()[0];
      auto [it, inserted] = partial.emplace(k, row.tuple()[1]);
      if (!inserted) it->second = Apply(op, it->second, row.tuple()[1]);
    }
    for (const auto& [k, v] : partial) {
      auto [it, inserted] = total.emplace(k, v);
      if (!inserted) it->second = Apply(op, it->second, v);
    }
  }
  return total;
}

/// groupByKey over (key, value) rows: each key's values in input order.
inline std::map<Value, ValueVec> GroupByKey(const ValueVec& rows) {
  std::map<Value, ValueVec> groups;
  for (const Value& row : rows) {
    groups[row.tuple()[0]].push_back(row.tuple()[1]);
  }
  return groups;
}

/// (key, Bag-of-values) layout of a groupByKey result.
inline ValueVec BagLayout(const std::map<Value, ValueVec>& groups,
                          int parts) {
  return HashLayout(groups, parts, [](const Value& k, const ValueVec& vs) {
    return Value::MakePair(k, Value::MakeBag(vs));
  });
}

/// join(left, right) where `right` is a keyed result already laid out
/// by hash (a reduceByKey output) and `left` holds each key's values in
/// arrival order. The right rows are the probe side: per partition,
/// right keys ascending, each paired with its left values in order.
inline ValueVec JoinLayout(const std::map<Value, ValueVec>& left,
                           const std::map<Value, Value>& right, int parts) {
  std::vector<ValueVec> out(static_cast<size_t>(parts));
  for (const auto& [k, rv] : right) {
    auto lvs = left.find(k);
    if (lvs == left.end()) continue;
    ValueVec& dest = out[k.Hash() % static_cast<size_t>(parts)];
    for (const Value& lv : lvs->second) {
      dest.push_back(Value::MakePair(k, Value::MakePair(lv, rv)));
    }
  }
  return Concat(out);
}

/// The Reduce action: each chunk folds in order, then the partials.
inline std::optional<Value> Reduce(const std::vector<ValueVec>& chunks,
                                   BinOp op) {
  std::optional<Value> total;
  for (const ValueVec& chunk : chunks) {
    std::optional<Value> partial;
    for (const Value& v : chunk) {
      partial = partial.has_value() ? Apply(op, *partial, v) : v;
    }
    if (!partial.has_value()) continue;
    total = total.has_value() ? Apply(op, *total, *partial) : *partial;
  }
  return total;
}

/// Structural equality in which doubles may differ by `rel` relative
/// error; every other kind (and the shape) must match exactly.
inline bool NearlyEqual(const Value& a, const Value& b, double rel) {
  if (a.is_double() && b.is_double()) {
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::abs(x - y) <= rel * std::max(std::abs(x), std::abs(y));
  }
  if (a.kind() != b.kind()) return false;
  if (a.is_tuple() || a.is_bag()) {
    const ValueVec& xs = a.is_tuple() ? a.tuple() : a.bag();
    const ValueVec& ys = b.is_tuple() ? b.tuple() : b.bag();
    if (xs.size() != ys.size()) return false;
    for (size_t i = 0; i < xs.size(); ++i) {
      if (!NearlyEqual(xs[i], ys[i], rel)) return false;
    }
    return true;
  }
  return a == b;
}

inline ::testing::AssertionResult RowsNearlyEqual(const ValueVec& got,
                                                  const ValueVec& want,
                                                  double rel) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " rows, expected " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!NearlyEqual(got[i], want[i], rel)) {
      return ::testing::AssertionFailure()
             << "row " << i << ": " << got[i].ToString() << " vs expected "
             << want[i].ToString();
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace diablo::runtime::oracle

#endif  // DIABLO_TESTS_SEQ_ORACLE_H_
