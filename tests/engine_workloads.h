// Engine workloads shared by the engine property suites, each paired
// with its sequential oracle (tests/seq_oracle.h):
//  0  word count: (word, 1) pairs reduced by key — string keys;
//  1  PageRank-flavoured: two iterations of join(links, ranks) →
//     contributions → reduceByKey over doubles;
//  2  relational mix: join, coGroup and distinct over (int, double)
//     rows and their per-key sums.
// Every oracle follows the engine's documented output layout, so an
// engine run must equal it byte for byte.

#ifndef DIABLO_TESTS_ENGINE_WORKLOADS_H_
#define DIABLO_TESTS_ENGINE_WORKLOADS_H_

#include <map>
#include <random>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "tests/seq_oracle.h"

namespace diablo::runtime::workloads {

inline constexpr int kNumWorkloads = 3;

inline StatusOr<ValueVec> WordCount(Engine& engine, const ValueVec& words) {
  Dataset ds = engine.Parallelize(words);
  DIABLO_ASSIGN_OR_RETURN(
      Dataset pairs, engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
        return Value::MakePair(v, Value::MakeInt(1));
      }));
  DIABLO_ASSIGN_OR_RETURN(Dataset counts,
                          engine.ReduceByKey(pairs, BinOp::kAdd));
  return engine.Collect(counts);
}

/// One node's contributions: (dst, rank / out-degree) per out-edge.
inline ValueVec Contributions(const ValueVec& outs, double rank) {
  ValueVec out;
  out.reserve(outs.size());
  for (const Value& dst : outs) {
    out.push_back(Value::MakePair(
        dst, Value::MakeDouble(rank / static_cast<double>(outs.size()))));
  }
  return out;
}

inline double Damp(double sum) { return 0.15 + 0.85 * sum; }

inline StatusOr<ValueVec> PageRankIters(Engine& engine,
                                        const ValueVec& edges) {
  Dataset links = engine.Parallelize(edges);
  DIABLO_ASSIGN_OR_RETURN(Dataset grouped, engine.GroupByKey(links));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset ranks,
      engine.MapValues(grouped, [](const Value&) -> StatusOr<Value> {
        return Value::MakeDouble(1.0);
      }));
  for (int iter = 0; iter < 2; ++iter) {
    DIABLO_ASSIGN_OR_RETURN(Dataset joined, engine.Join(grouped, ranks));
    DIABLO_ASSIGN_OR_RETURN(
        Dataset contribs,
        engine.FlatMap(joined, [](const Value& v) -> StatusOr<ValueVec> {
          return Contributions(v.tuple()[1].tuple()[0].bag(),
                               v.tuple()[1].tuple()[1].AsDouble());
        }));
    DIABLO_ASSIGN_OR_RETURN(Dataset summed,
                            engine.ReduceByKey(contribs, BinOp::kAdd));
    DIABLO_ASSIGN_OR_RETURN(
        ranks, engine.MapValues(summed, [](const Value& v) -> StatusOr<Value> {
          return Value::MakeDouble(Damp(v.AsDouble()));
        }));
  }
  return engine.Collect(ranks);
}

inline StatusOr<ValueVec> RelationalMix(Engine& engine, const ValueVec& rows) {
  Dataset ds = engine.Parallelize(rows);
  DIABLO_ASSIGN_OR_RETURN(Dataset sums, engine.ReduceByKey(ds, BinOp::kAdd));
  DIABLO_ASSIGN_OR_RETURN(Dataset joined, engine.Join(ds, sums));
  DIABLO_ASSIGN_OR_RETURN(ValueVec out, engine.Collect(joined));
  DIABLO_ASSIGN_OR_RETURN(Dataset cg, engine.CoGroup(ds, sums));
  DIABLO_ASSIGN_OR_RETURN(ValueVec cg_rows, engine.Collect(cg));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset keys, engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
        return v.tuple()[0];
      }));
  DIABLO_ASSIGN_OR_RETURN(Dataset uniq, engine.Distinct(keys));
  DIABLO_ASSIGN_OR_RETURN(ValueVec uniq_rows, engine.Collect(uniq));
  out.insert(out.end(), cg_rows.begin(), cg_rows.end());
  out.insert(out.end(), uniq_rows.begin(), uniq_rows.end());
  return out;
}

inline ValueVec WordCountOracle(const ValueVec& words, int parts) {
  ValueVec pairs;
  for (const Value& w : words) {
    pairs.push_back(Value::MakePair(w, Value::MakeInt(1)));
  }
  return oracle::PairLayout(
      oracle::ReduceByKey(oracle::Chunks(pairs, parts), BinOp::kAdd), parts);
}

inline ValueVec PageRankItersOracle(const ValueVec& edges, int parts) {
  const std::map<Value, ValueVec> links = oracle::GroupByKey(edges);
  std::map<Value, double> ranks;
  for (const auto& [src, outs] : links) ranks[src] = 1.0;
  for (int iter = 0; iter < 2; ++iter) {
    // The join's partition p holds the nodes hashed there, keys
    // ascending; the flatMap keeps its contributions in that partition,
    // and reduceByKey folds the partitions as its source chunks.
    std::vector<ValueVec> contribs(static_cast<size_t>(parts));
    for (const auto& [src, rank] : ranks) {
      auto outs = links.find(src);
      if (outs == links.end()) continue;
      ValueVec& dest = contribs[src.Hash() % static_cast<size_t>(parts)];
      for (Value& c : Contributions(outs->second, rank)) {
        dest.push_back(std::move(c));
      }
    }
    ranks.clear();
    for (const auto& [dst, sum] : oracle::ReduceByKey(contribs, BinOp::kAdd)) {
      ranks[dst] = Damp(sum.AsDouble());
    }
  }
  return oracle::HashLayout(ranks, parts, [](const Value& k, double r) {
    return Value::MakePair(k, Value::MakeDouble(r));
  });
}

inline ValueVec RelationalMixOracle(const ValueVec& rows, int parts) {
  const std::map<Value, Value> sums =
      oracle::ReduceByKey(oracle::Chunks(rows, parts), BinOp::kAdd);
  const std::map<Value, ValueVec> left = oracle::GroupByKey(rows);
  ValueVec out = oracle::JoinLayout(left, sums, parts);
  // CoGroup: (key, (Bag of left values, Bag of the one sum)).
  ValueVec cg = oracle::HashLayout(
      sums, parts, [&](const Value& k, const Value& sum) {
        return Value::MakePair(k, Value::MakePair(Value::MakeBag(left.at(k)),
                                                  Value::MakeBag({sum})));
      });
  // Distinct keys, each a row of its own.
  ValueVec uniq = oracle::HashLayout(
      left, parts, [](const Value& k, const ValueVec&) { return k; });
  out.insert(out.end(), cg.begin(), cg.end());
  out.insert(out.end(), uniq.begin(), uniq.end());
  return out;
}

inline StatusOr<ValueVec> RunWorkload(Engine& engine, int which,
                                      const ValueVec& rows) {
  switch (which) {
    case 0:
      return WordCount(engine, rows);
    case 1:
      return PageRankIters(engine, rows);
    default:
      return RelationalMix(engine, rows);
  }
}

/// The expected output of RunWorkload(which) on an engine with `parts`
/// partitions.
inline ValueVec WorkloadOracle(int which, const ValueVec& rows, int parts) {
  switch (which) {
    case 0:
      return WordCountOracle(rows, parts);
    case 1:
      return PageRankItersOracle(rows, parts);
    default:
      return RelationalMixOracle(rows, parts);
  }
}

/// Random input of workload `which`: words, edges between 20-39 nodes,
/// or (int key, double value) rows.
inline ValueVec WorkloadInput(int which, std::mt19937_64& rng) {
  ValueVec rows;
  if (which == 0) {
    const int n = 200 + static_cast<int>(rng() % 300);
    for (int i = 0; i < n; ++i) {
      rows.push_back(Value::MakeString("word" + std::to_string(rng() % 37)));
    }
  } else if (which == 1) {
    const int nodes = 20 + static_cast<int>(rng() % 20);
    const int edges = 150 + static_cast<int>(rng() % 150);
    for (int i = 0; i < edges; ++i) {
      rows.push_back(
          Value::MakePair(Value::MakeInt(static_cast<int64_t>(rng() % nodes)),
                          Value::MakeInt(static_cast<int64_t>(rng() % nodes))));
    }
  } else {
    const int n = 150 + static_cast<int>(rng() % 250);
    for (int i = 0; i < n; ++i) {
      rows.push_back(Value::MakePair(
          Value::MakeInt(static_cast<int64_t>(rng() % 23)),
          Value::MakeDouble(static_cast<double>(rng() % 1000) / 7.0 - 50.0)));
    }
  }
  return rows;
}

}  // namespace diablo::runtime::workloads

#endif  // DIABLO_TESTS_ENGINE_WORKLOADS_H_
