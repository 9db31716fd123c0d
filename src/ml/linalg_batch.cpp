#include "ml/linalg_batch.h"

#include <algorithm>

#include "exec/thread_pool.h"
#include "ml/linalg.h"

namespace esharing::ml {

namespace {

/// Serial under the shared cutoff, pool width above it; explicit widths
/// pass through untouched. Only ever selects the lane count.
std::size_t pick_width(std::size_t flops, std::size_t width) {
  if (width != 0) return width;
  return flops < kSerialFlops ? 1 : 0;
}

/// Generic plane product: z[r][c] (=|+=) init + sum_j wload(r, j) * x[j][c]
/// with j ascending. The blocked body and both tails execute the identical
/// per-element statement sequence (this file is built with
/// -ffp-contract=off), so an element's value never depends on its batch
/// position, the batch size, or the pool width. One lane runs the rows
/// directly, without a pool dispatch (the tiled callers are already one
/// task per tile).
template <bool kAccumulate, typename LoadW>
void plane_matmul(LoadW&& wload, std::size_t out_rows, std::size_t inner,
                  const float* x, std::size_t batch, const float* bias,
                  float* z, std::size_t width) {
  const auto rows = [&](std::size_t rb, std::size_t re) {
    for (std::size_t r = rb; r < re; ++r) {
      float* zr = z + r * batch;
      if (!kAccumulate) {
        const float init = bias != nullptr ? bias[r] : 0.0f;
        for (std::size_t c = 0; c < batch; ++c) zr[c] = init;
      }
      std::size_t j = 0;
      for (; j + 4 <= inner; j += 4) {
        const float w0 = wload(r, j);
        const float w1 = wload(r, j + 1);
        const float w2 = wload(r, j + 2);
        const float w3 = wload(r, j + 3);
        const float* x0 = x + j * batch;
        const float* x1 = x0 + batch;
        const float* x2 = x1 + batch;
        const float* x3 = x2 + batch;
        std::size_t c = 0;
        for (; c + kPlaneLanes <= batch; c += kPlaneLanes) {
          for (std::size_t l = 0; l < kPlaneLanes; ++l) {
            float acc = zr[c + l];
            acc += w0 * x0[c + l];
            acc += w1 * x1[c + l];
            acc += w2 * x2[c + l];
            acc += w3 * x3[c + l];
            zr[c + l] = acc;
          }
        }
        for (; c < batch; ++c) {
          float acc = zr[c];
          acc += w0 * x0[c];
          acc += w1 * x1[c];
          acc += w2 * x2[c];
          acc += w3 * x3[c];
          zr[c] = acc;
        }
      }
      for (; j < inner; ++j) {
        const float wj = wload(r, j);
        const float* xj = x + j * batch;
        std::size_t c = 0;
        for (; c + kPlaneLanes <= batch; c += kPlaneLanes) {
          for (std::size_t l = 0; l < kPlaneLanes; ++l) {
            zr[c + l] += wj * xj[c + l];
          }
        }
        for (; c < batch; ++c) zr[c] += wj * xj[c];
      }
    }
  };
  const std::size_t lanes = pick_width(out_rows * inner * batch, width);
  if (lanes == 1) {
    rows(0, out_rows);
    return;
  }
  exec::parallel_for(
      out_rows, kRowGrain,
      [&](std::size_t rb, std::size_t re, std::size_t) { rows(rb, re); },
      lanes);
}

/// One register block of the weight-gradient fold: the kRows × kCols
/// output elements out[r*cols + k] (r < kRows, k < kCols), each its own
/// double chain over ascending c. The accumulators stay in registers and
/// the c loop is vectorized across the kRows outputs.
template <std::size_t kRows, std::size_t kCols>
void fold_block(const float* a, std::size_t lda, const double* x,
                std::size_t cols, std::size_t batch, double* out) {
  double acc[kCols][kRows] = {};
  for (std::size_t c = 0; c < batch; ++c) {
    double av[kRows];
    for (std::size_t r = 0; r < kRows; ++r) {
      av[r] = static_cast<double>(a[c * lda + r]);
    }
    for (std::size_t k = 0; k < kCols; ++k) {
      const double xv = x[k * batch + c];
      for (std::size_t r = 0; r < kRows; ++r) acc[k][r] += av[r] * xv;
    }
  }
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t k = 0; k < kCols; ++k) out[r * cols + k] = acc[k][r];
  }
}

/// kRows output rows of the fold, in register blocks of up to 4 columns.
template <std::size_t kRows>
void fold_rows(const float* a, std::size_t lda, const double* x,
               std::size_t cols, std::size_t batch, double* out) {
  std::size_t k = 0;
  for (; k + 4 <= cols; k += 4) {
    fold_block<kRows, 4>(a, lda, x + k * batch, cols, batch, out + k);
  }
  const double* xk = x + k * batch;
  switch (cols - k) {
    case 3: fold_block<kRows, 3>(a, lda, xk, cols, batch, out + k); break;
    case 2: fold_block<kRows, 2>(a, lda, xk, cols, batch, out + k); break;
    case 1: fold_block<kRows, 1>(a, lda, xk, cols, batch, out + k); break;
    default: break;
  }
}

}  // namespace

void batch_matmul_bias(const float* w, std::size_t rows, std::size_t cols,
                       const float* x, std::size_t batch, const float* bias,
                       float* z, std::size_t width) {
  plane_matmul<false>(
      [&](std::size_t r, std::size_t k) { return w[r * cols + k]; }, rows,
      cols, x, batch, bias, z, width);
}

void batch_matmul_acc(const float* w, std::size_t rows, std::size_t cols,
                      const float* x, std::size_t batch, float* z,
                      std::size_t width) {
  plane_matmul<true>(
      [&](std::size_t r, std::size_t k) { return w[r * cols + k]; }, rows,
      cols, x, batch, nullptr, z, width);
}

void batch_matmul_transpose_acc(const float* w, std::size_t rows,
                                std::size_t cols, const float* z,
                                std::size_t batch, float* out,
                                std::size_t width) {
  // Output rows are the weight columns; the inner (ascending) dimension is
  // the weight rows, loaded with stride cols.
  plane_matmul<true>(
      [&](std::size_t k, std::size_t r) { return w[r * cols + k]; }, cols,
      rows, z, batch, nullptr, out, width);
}

void batch_fold_outer(const float* a, std::size_t lda, std::size_t rows,
                      const double* x, std::size_t cols, std::size_t batch,
                      double* out) {
  std::size_t r = 0;
  for (; r + 8 <= rows; r += 8) fold_rows<8>(a + r, lda, x, cols, batch, out + r * cols);
  if (r + 4 <= rows) {
    fold_rows<4>(a + r, lda, x, cols, batch, out + r * cols);
    r += 4;
  }
  for (; r < rows; ++r) fold_rows<1>(a + r, lda, x, cols, batch, out + r * cols);
}

void batch_fold_rowsum(const float* a, std::size_t lda, std::size_t rows,
                       std::size_t batch, double* out) {
  std::fill(out, out + rows, 0.0);
  for (std::size_t c = 0; c < batch; ++c) {
    const float* ac = a + c * lda;
    for (std::size_t r = 0; r < rows; ++r) out[r] += static_cast<double>(ac[r]);
  }
}

}  // namespace esharing::ml
