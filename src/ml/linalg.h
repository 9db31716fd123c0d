#pragma once

/// \file linalg.h
/// Minimal dense linear algebra for the statistical forecasters: a small
/// row-major matrix and the least-squares solve used to fit AR
/// coefficients (normal equations with ridge-stabilized Gaussian
/// elimination).

#include <cstddef>
#include <vector>

namespace esharing::ml {

/// Below this many multiply-adds a parallel region costs more than it
/// saves (forecaster defaults are tiny). Shared by the least-squares
/// normal equations here and the batched plane kernels (linalg_batch.h);
/// the cutoff only ever picks the lane count, never the arithmetic, so
/// results are identical either way.
inline constexpr std::size_t kSerialFlops = 1 << 14;

/// Rows per chunk for row-parallel kernels.
inline constexpr std::size_t kRowGrain = 8;

/// Dense row-major matrix of doubles.
class Mat {
 public:
  Mat() = default;
  /// Zero-initialized r x c matrix.
  Mat(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;
  [[nodiscard]] const std::vector<double>& data() const { return data_; }
  [[nodiscard]] std::vector<double>& data() { return data_; }

 private:
  std::size_t rows_{0};
  std::size_t cols_{0};
  std::vector<double> data_;
};

/// Solve A x = b by Gaussian elimination with partial pivoting.
/// \throws std::invalid_argument on shape mismatch or singular A.
[[nodiscard]] std::vector<double> solve_linear(Mat a, std::vector<double> b);

/// Least-squares solve of X beta ~= y via the normal equations
/// (X'X + ridge*I) beta = X'y. A tiny ridge keeps near-collinear designs
/// solvable.
/// \throws std::invalid_argument on shape mismatch or empty design.
[[nodiscard]] std::vector<double> least_squares(const Mat& x,
                                                const std::vector<double>& y,
                                                double ridge = 1e-8);

}  // namespace esharing::ml
