#include "ml/linalg.h"

#include <cmath>
#include <stdexcept>

#include "exec/thread_pool.h"

namespace esharing::ml {

Mat::Mat(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

double& Mat::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Mat::at");
  return data_[r * cols_ + c];
}

double Mat::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Mat::at");
  return data_[r * cols_ + c];
}

std::vector<double> solve_linear(Mat a, std::vector<double> b) {
  const std::size_t n = a.rows();
  if (n == 0 || a.cols() != n || b.size() != n) {
    throw std::invalid_argument("solve_linear: shape mismatch");
  }
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a.at(r, col)) > std::abs(a.at(pivot, col))) pivot = r;
    }
    if (std::abs(a.at(pivot, col)) < 1e-14) {
      throw std::invalid_argument("solve_linear: singular matrix");
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a.at(pivot, c), a.at(col, c));
      std::swap(b[pivot], b[col]);
    }
    // Eliminate below.
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a.at(r, col) / a.at(col, col);
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) {
        a.at(r, c) -= factor * a.at(col, c);
      }
      b[r] -= factor * b[col];
    }
  }
  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) sum -= a.at(ri, c) * x[c];
    x[ri] = sum / a.at(ri, ri);
  }
  return x;
}

std::vector<double> least_squares(const Mat& x, const std::vector<double>& y,
                                  double ridge) {
  if (x.rows() == 0 || x.cols() == 0 || x.rows() != y.size()) {
    throw std::invalid_argument("least_squares: shape mismatch");
  }
  const std::size_t p = x.cols();
  const std::size_t n = x.rows();
  Mat xtx(p, p);
  std::vector<double> xty(p, 0.0);
  // Blocked X'X / X'y: lanes own disjoint i-columns, and every element
  // still accumulates its products in ascending r — the identical
  // per-element addition sequence the old r-outer loop produced, just
  // reordered across independent accumulators (bit-identity-tested).
  const double* xd = x.data().data();
  double* xtxd = xtx.data().data();
  const std::size_t width = n * p * p < kSerialFlops ? 1 : 0;
  exec::parallel_for(
      p, /*grain=*/1,
      [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t i = b; i < e; ++i) {
          double acc_y = 0.0;
          for (std::size_t r = 0; r < n; ++r) acc_y += xd[r * p + i] * y[r];
          xty[i] = acc_y;
          for (std::size_t j = i; j < p; ++j) {
            double acc = 0.0;
            for (std::size_t r = 0; r < n; ++r) {
              acc += xd[r * p + i] * xd[r * p + j];
            }
            xtxd[i * p + j] = acc;
          }
        }
      },
      width);
  for (std::size_t i = 0; i < p; ++i) {
    xtx.at(i, i) += ridge;
    for (std::size_t j = 0; j < i; ++j) xtx.at(i, j) = xtx.at(j, i);
  }
  return solve_linear(std::move(xtx), std::move(xty));
}

}  // namespace esharing::ml
