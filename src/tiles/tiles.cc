#include "tiles/tiles.h"

#include <map>

#include "common/strings.h"
#include "runtime/array.h"

namespace diablo::tiles {

using runtime::Dataset;
using runtime::Engine;
using runtime::Value;
using runtime::ValueVec;

namespace {

Status CheckElementRow(const Value& row) {
  if (!row.is_tuple() || row.tuple().size() != 2 ||
      !row.tuple()[0].is_tuple() || row.tuple()[0].tuple().size() != 2 ||
      !row.tuple()[0].tuple()[0].is_int() ||
      !row.tuple()[0].tuple()[1].is_int() || !row.tuple()[1].is_numeric()) {
    return Status::RuntimeError(
        StrCat("not a sparse matrix row: ", row.ToString()));
  }
  return Status::OK();
}

Status CheckTileRow(const Value& row, int64_t tile_size) {
  if (!row.is_tuple() || row.tuple().size() != 2 ||
      !row.tuple()[0].is_tuple() || row.tuple()[0].tuple().size() != 2 ||
      !row.tuple()[1].is_bag() ||
      static_cast<int64_t>(row.tuple()[1].bag().size()) != tile_size) {
    return Status::RuntimeError(
        StrCat("not a tiled matrix row: ", row.ToString()));
  }
  return Status::OK();
}

}  // namespace

StatusOr<Dataset> Pack(Engine& engine, const Dataset& sparse,
                       const TileConfig& config) {
  const int64_t n = config.tile_rows, m = config.tile_cols;
  if (n <= 0 || m <= 0) {
    return Status::InvalidArgument("tile dimensions must be positive");
  }
  // ((i,j),v) -> ((ti,tj), (offset, v)).
  DIABLO_ASSIGN_OR_RETURN(
      Dataset keyed,
      engine.Map(
          sparse,
          [n, m](const Value& row) -> StatusOr<Value> {
            DIABLO_RETURN_IF_ERROR(CheckElementRow(row));
            int64_t i = row.tuple()[0].tuple()[0].AsInt();
            int64_t j = row.tuple()[0].tuple()[1].AsInt();
            if (i < 0 || j < 0) {
              return Status::RuntimeError("negative matrix index in Pack");
            }
            Value tile_key = runtime::MatrixKey(i / n, j / m);
            Value offset = Value::MakeInt((i % n) * m + (j % m));
            return Value::MakePair(
                tile_key, Value::MakePair(offset, row.tuple()[1]));
          },
          "pack.key"));
  DIABLO_ASSIGN_OR_RETURN(Dataset grouped,
                          engine.GroupByKey(keyed, "pack.group"));
  // form(z, n*m): scatter offsets into a dense row-major tile. The
  // groupBy already hash-partitioned the tiles by their coordinates (the
  // paper's "set the group-by partitioner" — our engine's groupBy output
  // partitioning is the key-hash partitioner), so packed matrices are
  // co-partitioned and zip-mergeable without a further shuffle.
  return engine.Map(
      grouped,
      [n, m](const Value& row) -> StatusOr<Value> {
        ValueVec tile(static_cast<size_t>(n * m), Value::MakeDouble(0.0));
        for (const Value& entry : row.tuple()[1].bag()) {
          int64_t offset = entry.tuple()[0].AsInt();
          tile[static_cast<size_t>(offset)] =
              Value::MakeDouble(entry.tuple()[1].ToDouble());
        }
        return Value::MakePair(row.tuple()[0],
                               Value::MakeBag(std::move(tile)));
      },
      "pack.form");
}

StatusOr<Dataset> Unpack(Engine& engine, const Dataset& tiled,
                         const TileConfig& config) {
  const int64_t n = config.tile_rows, m = config.tile_cols;
  // { ((ti*n + k/m, tj*m + k%m), v) | ((ti,tj), L) <- N, (k,v) <- scan(L) }.
  return engine.FlatMap(
      tiled,
      [n, m](const Value& row) -> StatusOr<ValueVec> {
        DIABLO_RETURN_IF_ERROR(CheckTileRow(row, n * m));
        int64_t ti = row.tuple()[0].tuple()[0].AsInt();
        int64_t tj = row.tuple()[0].tuple()[1].AsInt();
        const ValueVec& tile = row.tuple()[1].bag();
        ValueVec out;
        out.reserve(tile.size());
        for (int64_t k = 0; k < static_cast<int64_t>(tile.size()); ++k) {
          out.push_back(Value::MakePair(
              runtime::MatrixKey(ti * n + k / m, tj * m + k % m),
              tile[static_cast<size_t>(k)]));
        }
        return out;
      },
      "unpack");
}

StatusOr<Dataset> PartitionByKey(Engine& engine, const Dataset& ds) {
  // Implemented as a degenerate reduceByKey that never merges (every key
  // appears once per tile) — one shuffle that fixes the partitioning.
  return engine.ReduceByKey(
      ds,
      [](const Value& a, const Value& b) -> StatusOr<Value> {
        (void)a;
        return b;
      },
      "partitionBy");
}

StatusOr<Dataset> ZipMergeAdd(Engine& engine, const Dataset& in_a,
                              const Dataset& in_b) {
  // This merge reads partitions directly, so any pending fused chain
  // (Pack's trailing tile-forming map) must run first.
  DIABLO_ASSIGN_OR_RETURN(Dataset a, engine.Force(in_a));
  DIABLO_ASSIGN_OR_RETURN(Dataset b, engine.Force(in_b));
  // A fresh (never packed) side has zero partitions and contributes
  // nothing.
  if (a.num_partitions() == 0) return b;
  if (b.num_partitions() == 0) return a;
  if (a.num_partitions() != b.num_partitions()) {
    return Status::InvalidArgument(
        "ZipMergeAdd requires equally partitioned inputs");
  }
  // Partition-local merge: no shuffle. Equal tile keys are guaranteed to
  // be in equal partitions because both sides were hash-partitioned.
  std::vector<ValueVec> out(static_cast<size_t>(a.num_partitions()));
  std::vector<int64_t> work(out.size(), 0);
  for (int p = 0; p < a.num_partitions(); ++p) {
    std::map<Value, Value> merged;
    for (const Value& row : a.partition(p)) {
      merged.insert_or_assign(row.tuple()[0], row.tuple()[1]);
    }
    work[static_cast<size_t>(p)] =
        static_cast<int64_t>(a.partition(p).size()) +
        static_cast<int64_t>(b.partition(p).size());
    for (const Value& row : b.partition(p)) {
      auto it = merged.find(row.tuple()[0]);
      if (it == merged.end()) {
        merged.emplace(row.tuple()[0], row.tuple()[1]);
        continue;
      }
      // Elementwise tile addition.
      const ValueVec& x = it->second.bag();
      const ValueVec& y = row.tuple()[1].bag();
      if (x.size() != y.size()) {
        return Status::RuntimeError("tile size mismatch in ZipMergeAdd");
      }
      ValueVec sum;
      sum.reserve(x.size());
      for (size_t i = 0; i < x.size(); ++i) {
        sum.push_back(Value::MakeDouble(x[i].ToDouble() + y[i].ToDouble()));
      }
      it->second = Value::MakeBag(std::move(sum));
      work[static_cast<size_t>(p)] += static_cast<int64_t>(x.size());
    }
    for (auto& [key, tile] : merged) {
      out[static_cast<size_t>(p)].push_back(Value::MakePair(key, tile));
    }
  }
  runtime::StageStats stats;
  stats.label = "zipMerge";
  stats.map_work = std::move(work);
  engine.metrics().AddStage(std::move(stats));
  return Dataset(std::move(out));
}

StatusOr<Dataset> CoGroupMergeAdd(Engine& engine, const Dataset& a,
                                  const Dataset& b) {
  DIABLO_ASSIGN_OR_RETURN(Dataset grouped,
                          engine.CoGroup(a, b, "tileMerge.coGroup"));
  return engine.FlatMap(
      grouped,
      [](const Value& row) -> StatusOr<ValueVec> {
        const Value& key = row.tuple()[0];
        const ValueVec& xs = row.tuple()[1].tuple()[0].bag();
        const ValueVec& ys = row.tuple()[1].tuple()[1].bag();
        ValueVec out;
        if (xs.empty() && ys.empty()) return out;
        if (ys.empty()) {
          out.push_back(Value::MakePair(key, xs.back()));
          return out;
        }
        if (xs.empty()) {
          out.push_back(Value::MakePair(key, ys.back()));
          return out;
        }
        const ValueVec& x = xs.back().bag();
        const ValueVec& y = ys.back().bag();
        if (x.size() != y.size()) {
          return Status::RuntimeError("tile size mismatch in tile merge");
        }
        ValueVec sum;
        sum.reserve(x.size());
        for (size_t i = 0; i < x.size(); ++i) {
          sum.push_back(Value::MakeDouble(x[i].ToDouble() + y[i].ToDouble()));
        }
        out.push_back(Value::MakePair(key, Value::MakeBag(std::move(sum))));
        return out;
      },
      "tileMerge.combine");
}

StatusOr<Dataset> TiledMatMul(Engine& engine, const Dataset& a,
                              const Dataset& b, const TileConfig& config) {
  if (config.tile_rows != config.tile_cols) {
    return Status::InvalidArgument("TiledMatMul requires square tiles");
  }
  const int64_t t = config.tile_rows;
  // A tiles keyed by column grid coordinate, B tiles by row grid
  // coordinate, joined on the shared dimension.
  DIABLO_ASSIGN_OR_RETURN(
      Dataset left,
      engine.Map(
          a,
          [t](const Value& row) -> StatusOr<Value> {
            DIABLO_RETURN_IF_ERROR(CheckTileRow(row, t * t));
            return Value::MakePair(
                row.tuple()[0].tuple()[1],
                Value::MakePair(row.tuple()[0].tuple()[0], row.tuple()[1]));
          },
          "tmm.keyA"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset right,
      engine.Map(
          b,
          [t](const Value& row) -> StatusOr<Value> {
            DIABLO_RETURN_IF_ERROR(CheckTileRow(row, t * t));
            return Value::MakePair(
                row.tuple()[0].tuple()[0],
                Value::MakePair(row.tuple()[0].tuple()[1], row.tuple()[1]));
          },
          "tmm.keyB"));
  DIABLO_ASSIGN_OR_RETURN(Dataset joined,
                          engine.Join(left, right, "tmm.join"));
  // Dense tile multiply per joined pair.
  DIABLO_ASSIGN_OR_RETURN(
      Dataset partial,
      engine.Map(
          joined,
          [t](const Value& row) -> StatusOr<Value> {
            const Value& pair = row.tuple()[1];
            int64_t ti = pair.tuple()[0].tuple()[0].AsInt();
            const ValueVec& x = pair.tuple()[0].tuple()[1].bag();
            int64_t tj = pair.tuple()[1].tuple()[0].AsInt();
            const ValueVec& y = pair.tuple()[1].tuple()[1].bag();
            ValueVec z(static_cast<size_t>(t * t), Value::MakeDouble(0.0));
            for (int64_t i = 0; i < t; ++i) {
              for (int64_t k = 0; k < t; ++k) {
                double xv = x[static_cast<size_t>(i * t + k)].ToDouble();
                if (xv == 0.0) continue;
                for (int64_t j = 0; j < t; ++j) {
                  double cur = z[static_cast<size_t>(i * t + j)].AsDouble();
                  z[static_cast<size_t>(i * t + j)] = Value::MakeDouble(
                      cur + xv * y[static_cast<size_t>(k * t + j)].ToDouble());
                }
              }
            }
            return Value::MakePair(runtime::MatrixKey(ti, tj),
                                   Value::MakeBag(std::move(z)));
          },
          "tmm.multiply"));
  // Sum the partial tiles per output coordinate.
  return engine.ReduceByKey(
      partial,
      [t](const Value& x, const Value& y) -> StatusOr<Value> {
        const ValueVec& a_tile = x.bag();
        const ValueVec& b_tile = y.bag();
        ValueVec sum;
        sum.reserve(static_cast<size_t>(t * t));
        for (size_t i = 0; i < a_tile.size(); ++i) {
          sum.push_back(
              Value::MakeDouble(a_tile[i].ToDouble() + b_tile[i].ToDouble()));
        }
        return Value::MakeBag(std::move(sum));
      },
      "tmm.reduce");
}

}  // namespace diablo::tiles
