// Unit and property tests for tiled (packed) matrices — paper §5:
// pack/unpack round trips, the shuffle-free zip merge, and tiled matrix
// multiplication against the sparse reference.

#include "tiles/tiles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "common/strings.h"
#include "runtime/array.h"
#include "runtime/operators.h"

namespace diablo::tiles {
namespace {

using runtime::Dataset;
using runtime::Engine;
using runtime::Value;
using runtime::ValueVec;

ValueVec DenseMatrixRows(int64_t n, int64_t m, std::mt19937_64& rng) {
  ValueVec rows;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      rows.push_back(Value::MakePair(
          runtime::MatrixKey(i, j),
          Value::MakeDouble(static_cast<double>(rng() % 100) / 7)));
    }
  }
  return rows;
}

Value SortedBag(Engine& engine, const Dataset& ds) {
  ValueVec rows = engine.Collect(ds).value();
  std::sort(rows.begin(), rows.end());
  return Value::MakeBag(std::move(rows));
}

struct TileParams {
  int64_t n, m;
  int64_t tr, tc;
};

class PackUnpackTest : public ::testing::TestWithParam<TileParams> {};

TEST_P(PackUnpackTest, UnpackOfPackIsIdentityOnDenseMatrices) {
  const TileParams& p = GetParam();
  Engine engine;
  std::mt19937_64 rng(p.n * 31 + p.tr);
  ValueVec rows = DenseMatrixRows(p.n, p.m, rng);
  Dataset sparse = engine.Parallelize(rows);
  TileConfig config{p.tr, p.tc};
  auto tiled = Pack(engine, sparse, config);
  ASSERT_TRUE(tiled.ok()) << tiled.status().ToString();
  auto back = Unpack(engine, *tiled, config);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Unpack emits every tile slot; restrict to the original support when
  // dimensions don't divide evenly.
  std::map<Value, Value> original;
  for (const Value& row : rows) {
    original.emplace(row.tuple()[0], row.tuple()[1]);
  }
  int64_t in_support = 0;
  const ValueVec back_rows = engine.Collect(*back).value();
  for (const Value& row : back_rows) {
    auto it = original.find(row.tuple()[0]);
    if (it == original.end()) {
      // Padding slot must be zero.
      EXPECT_DOUBLE_EQ(row.tuple()[1].ToDouble(), 0.0);
      continue;
    }
    ++in_support;
    EXPECT_DOUBLE_EQ(row.tuple()[1].ToDouble(), it->second.ToDouble());
  }
  EXPECT_EQ(in_support, static_cast<int64_t>(rows.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackUnpackTest,
    ::testing::Values(TileParams{8, 8, 4, 4}, TileParams{8, 8, 3, 3},
                      TileParams{5, 7, 2, 3}, TileParams{16, 4, 4, 2},
                      TileParams{1, 1, 4, 4}),
    [](const ::testing::TestParamInfo<TileParams>& info) {
      return StrCat("n", info.param.n, "m", info.param.m, "t", info.param.tr,
                    "x", info.param.tc);
    });

TEST(Pack, TileCountAndShape) {
  Engine engine;
  std::mt19937_64 rng(1);
  Dataset sparse = engine.Parallelize(DenseMatrixRows(8, 8, rng));
  TileConfig config{4, 4};
  auto tiled = Pack(engine, sparse, config);
  ASSERT_TRUE(tiled.ok());
  EXPECT_EQ(tiled->TotalRows(), 4);  // 2x2 tile grid
  const ValueVec tile_rows = engine.Collect(*tiled).value();
  for (const Value& row : tile_rows) {
    EXPECT_EQ(row.tuple()[1].bag().size(), 16u);
  }
}

TEST(ZipMerge, AgreesWithCoGroupMerge) {
  Engine engine;
  std::mt19937_64 rng(7);
  TileConfig config{4, 4};
  auto a = Pack(engine, engine.Parallelize(DenseMatrixRows(8, 8, rng)),
                config);
  auto b = Pack(engine, engine.Parallelize(DenseMatrixRows(8, 8, rng)),
                config);
  ASSERT_TRUE(a.ok() && b.ok());
  auto zipped = ZipMergeAdd(engine, *a, *b);
  ASSERT_TRUE(zipped.ok()) << zipped.status().ToString();
  auto cogrouped = CoGroupMergeAdd(engine, *a, *b);
  ASSERT_TRUE(cogrouped.ok());
  EXPECT_TRUE(runtime::BagAlmostEquals(SortedBag(engine, *zipped),
                                       SortedBag(engine, *cogrouped), 1e-9));
}

TEST(ZipMerge, NoShuffleChargedVsCoGroup) {
  Engine engine;
  std::mt19937_64 rng(3);
  TileConfig config{4, 4};
  auto a = Pack(engine, engine.Parallelize(DenseMatrixRows(12, 12, rng)),
                config);
  auto b = Pack(engine, engine.Parallelize(DenseMatrixRows(12, 12, rng)),
                config);
  ASSERT_TRUE(a.ok() && b.ok());
  engine.metrics().Clear();
  ASSERT_TRUE(ZipMergeAdd(engine, *a, *b).ok());
  EXPECT_EQ(engine.metrics().total_shuffle_bytes(), 0);
  EXPECT_EQ(engine.metrics().num_wide_stages(), 0);
  engine.metrics().Clear();
  ASSERT_TRUE(CoGroupMergeAdd(engine, *a, *b).ok());
  EXPECT_GT(engine.metrics().total_shuffle_bytes(), 0);
}

TEST(PartitionByKey, CoPartitionsEqualKeys) {
  Engine engine;
  ValueVec a_rows, b_rows;
  for (int64_t i = 0; i < 40; ++i) {
    a_rows.push_back(Value::MakePair(Value::MakeInt(i),
                                     Value::MakeDouble(i * 1.0)));
    b_rows.push_back(Value::MakePair(Value::MakeInt(39 - i),
                                     Value::MakeDouble(i * 2.0)));
  }
  auto a = PartitionByKey(engine, engine.Parallelize(a_rows));
  auto b = PartitionByKey(engine, engine.Parallelize(b_rows));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->num_partitions(), b->num_partitions());
  // Every key must live in the same partition index on both sides.
  std::map<Value, int> where;
  for (int p = 0; p < a->num_partitions(); ++p) {
    for (const Value& row : a->partition(p)) {
      where[row.tuple()[0]] = p;
    }
  }
  for (int p = 0; p < b->num_partitions(); ++p) {
    for (const Value& row : b->partition(p)) {
      auto it = where.find(row.tuple()[0]);
      ASSERT_NE(it, where.end());
      EXPECT_EQ(it->second, p) << row.ToString();
    }
  }
}

TEST(ZipMerge, DisjointTilesPassThrough) {
  Engine engine;
  TileConfig config{2, 2};
  std::mt19937_64 rng(9);
  // a covers rows 0..1, b covers rows 2..3: disjoint tile grids.
  ValueVec a_rows, b_rows;
  for (int64_t j = 0; j < 4; ++j) {
    a_rows.push_back(Value::MakePair(runtime::MatrixKey(0, j),
                                     Value::MakeDouble(1)));
    b_rows.push_back(Value::MakePair(runtime::MatrixKey(3, j),
                                     Value::MakeDouble(2)));
  }
  auto a = Pack(engine, engine.Parallelize(a_rows), config);
  auto b = Pack(engine, engine.Parallelize(b_rows), config);
  ASSERT_TRUE(a.ok() && b.ok());
  auto merged = ZipMergeAdd(engine, *a, *b);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->TotalRows(), a->TotalRows() + b->TotalRows());
}

TEST(TiledMatMul, AgreesWithDenseReference) {
  Engine engine;
  std::mt19937_64 rng(11);
  constexpr int64_t kN = 8;
  ValueVec a_rows = DenseMatrixRows(kN, kN, rng);
  ValueVec b_rows = DenseMatrixRows(kN, kN, rng);
  TileConfig config{4, 4};
  auto a = Pack(engine, engine.Parallelize(a_rows), config);
  auto b = Pack(engine, engine.Parallelize(b_rows), config);
  ASSERT_TRUE(a.ok() && b.ok());
  auto product = TiledMatMul(engine, *a, *b, config);
  ASSERT_TRUE(product.ok()) << product.status().ToString();
  auto result = Unpack(engine, *product, config);
  ASSERT_TRUE(result.ok());
  // Dense reference multiply.
  std::map<Value, double> av, bv;
  for (const Value& r : a_rows) av[r.tuple()[0]] = r.tuple()[1].ToDouble();
  for (const Value& r : b_rows) bv[r.tuple()[0]] = r.tuple()[1].ToDouble();
  std::map<Value, double> expected;
  for (int64_t i = 0; i < kN; ++i) {
    for (int64_t j = 0; j < kN; ++j) {
      double sum = 0;
      for (int64_t k = 0; k < kN; ++k) {
        sum += av[runtime::MatrixKey(i, k)] * bv[runtime::MatrixKey(k, j)];
      }
      expected[runtime::MatrixKey(i, j)] = sum;
    }
  }
  int64_t checked = 0;
  const ValueVec result_rows = engine.Collect(*result).value();
  for (const Value& row : result_rows) {
    auto it = expected.find(row.tuple()[0]);
    ASSERT_NE(it, expected.end()) << row.ToString();
    EXPECT_NEAR(row.tuple()[1].ToDouble(), it->second, 1e-9);
    ++checked;
  }
  EXPECT_EQ(checked, kN * kN);
}

TEST(TiledMatMul, RejectsNonSquareTiles) {
  Engine engine;
  EXPECT_FALSE(
      TiledMatMul(engine, Dataset(), Dataset(), TileConfig{2, 3}).ok());
}

TEST(Pack, RejectsNegativeIndices) {
  Engine engine;
  Dataset bad = engine.Parallelize({Value::MakePair(
      runtime::MatrixKey(-1, 0), Value::MakeDouble(1))});
  EXPECT_FALSE(Pack(engine, bad, TileConfig{4, 4}).ok());
}

}  // namespace
}  // namespace diablo::tiles
