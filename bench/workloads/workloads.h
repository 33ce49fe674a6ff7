#ifndef DIABLO_BENCH_WORKLOADS_WORKLOADS_H_
#define DIABLO_BENCH_WORKLOADS_WORKLOADS_H_

#include <cstdint>
#include <random>
#include <vector>

#include "runtime/value.h"

namespace diablo::bench {

using runtime::Value;
using runtime::ValueVec;

/// Synthetic datasets matching the paper's workloads (§6). All return
/// sparse arrays: bags of (key, value) pairs.

/// Uniform random doubles in [0, hi).
Value RandomDoubleVector(int64_t n, double hi, std::mt19937_64& rng);

/// Random 4-character strings drawn from `distinct` different values.
Value RandomStringVector(int64_t n, int distinct, std::mt19937_64& rng);

/// Random RGB pixel records with components in [0, 256).
Value RandomPixelVector(int64_t n, std::mt19937_64& rng);

/// Linear-regression points (x + dx, x - dx), x in [0,1000), dx in [0,10).
Value RegressionPoints(int64_t n, std::mt19937_64& rng);

/// (key, value) pairs with ~10 duplicates per key on average.
Value GroupByPairs(int64_t n, std::mt19937_64& rng);

/// Zipf(s) rank sampler over {0, ..., ranks-1}: P(r) proportional to
/// 1/(r+1)^s, drawn by inverse CDF over precomputed cumulative weights.
/// s near 1 is the classic web-corpus skew; s = 2 is the heavy-hitter
/// regime where the top rank alone owns most draws.
class ZipfSampler {
 public:
  ZipfSampler(int64_t ranks, double s);
  int64_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Skewed aggregation input: (key, 1) pairs whose keys are
/// Zipf(s) ranks over `keys` ranks — a count aggregation whose heavy
/// hitters concentrate rows on a few keys.
Value ZipfPairs(int64_t n, int64_t keys, double s, std::mt19937_64& rng);

/// Dense random matrix as a sparse bag {((i,j),v)}, v in [0, 10).
Value RandomMatrix(int64_t rows, int64_t cols, std::mt19937_64& rng);

/// Sparse random matrix with the given density, integer values in [1,5]
/// (the paper's factorization input).
Value SparseRandomMatrix(int64_t rows, int64_t cols, double density,
                         std::mt19937_64& rng);

/// RMAT (recursive-matrix) graph edges as a boolean adjacency matrix
/// {((i,j),true)}; `scale` gives 2^scale vertices, with edges_per_vertex *
/// 2^scale edges, using the paper's Kronecker parameters
/// a=0.30 b=0.25 c=0.25 d=0.20.
Value RmatGraph(int scale, int edges_per_vertex, std::mt19937_64& rng);

/// KMeans points: uniform points inside a grid of `grid` x `grid` unit
/// squares with corners (i*2+1, j*2+1)..(i*2+2, j*2+2) — the paper's
/// layout with 100 latent centroids for grid=10.
Value GridPoints(int64_t n, int grid, std::mt19937_64& rng);

/// The paper's initial centroids (i*2+1.2, j*2+1.2), keyed 0..grid*grid-1.
Value GridCentroids(int grid);

/// Random factor matrix with values in [0,1), dense, as sparse bag.
Value FactorMatrix(int64_t rows, int64_t cols, std::mt19937_64& rng);

}  // namespace diablo::bench

#endif  // DIABLO_BENCH_WORKLOADS_WORKLOADS_H_
