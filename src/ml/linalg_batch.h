#pragma once

/// \file linalg_batch.h
/// Batched fp32 "plane" kernels behind the multi-cell forecasting runtime
/// (batch.h). A plane is a row-major `[rows × batch]` array whose batch
/// (cell) dimension is contiguous, so broadcasting one weight against the
/// whole batch is a unit-stride loop the compiler turns into SIMD — the
/// hand-vectorization lives in fixed-lane blocked loops (kPlaneLanes), not
/// in pragmas, per the lint rules.
///
/// Determinism contract: every output element accumulates its terms in
/// ascending weight-column order through an identical per-element
/// expression in the blocked body and the tail, so a cell's result is bit-identical whatever
/// its batch position, whatever the batch size (batch=1 equals any larger
/// batch elementwise), and whatever the exec-pool width (rows fan out with
/// disjoint writes; the kSerialFlops cutoff from linalg.h only picks the
/// lane count). linalg_batch.cpp is compiled with -ffp-contract=off so no
/// platform fuses the multiply-add chain differently between the SIMD body
/// and the scalar tail.

#include <cstddef>

namespace esharing::ml {

/// Lanes per unrolled block in the plane kernels: one AVX register or two
/// SSE registers of fp32. Public so tests can probe body/tail boundaries.
inline constexpr std::size_t kPlaneLanes = 8;

/// Deterministic vectorizable tanh for the batched gate loops: the classic
/// float-precision 13/6 rational minimax on the clamped interval
/// |x| <= 7.90531 (beyond it tanh is ±1 to within fp32), evaluated in a
/// fixed Horner order with plain fp32 arithmetic. No libm call — so the
/// batch-contiguous pointwise loops auto-vectorize instead of serializing
/// on scalar exp — and no table lookup or fused multiply-add, so results
/// are bit-identical at every batch size and lane width as long as the
/// calling TU is compiled with -ffp-contract=off (batch.cpp is; see the
/// file-level contract above). Error vs libm tanhf is a few ulp.
inline float plane_tanhf(float x) {
  constexpr float kClamp = 7.90531111f;
  x = x > kClamp ? kClamp : x;
  x = x < -kClamp ? -kClamp : x;
  const float x2 = x * x;
  float p = -2.76076847742355e-16f;
  p = x2 * p + 2.00018790482477e-13f;
  p = x2 * p + -8.60467152213735e-11f;
  p = x2 * p + 5.12229709037114e-08f;
  p = x2 * p + 1.48572235717979e-05f;
  p = x2 * p + 6.37261928875436e-04f;
  p = x2 * p + 4.89352455891786e-03f;
  p = x * p;
  float q = 1.19825839466702e-06f;
  q = x2 * q + 1.18534705686654e-04f;
  q = x2 * q + 2.26843463243900e-03f;
  q = x2 * q + 4.89352518554385e-03f;
  return p / q;
}

/// Sigmoid through the same rational core: 0.5 * tanh(x/2) + 0.5. Shares
/// plane_tanhf's determinism and vectorization properties.
inline float plane_sigmoidf(float x) {
  return 0.5f * plane_tanhf(0.5f * x) + 0.5f;
}

/// z[r][c] = bias[r] + sum_k w[r*cols + k] * x[k][c] over a `[cols × batch]`
/// input plane, terms added in ascending k. bias may be nullptr (rows start
/// from 0). `width` 0 = auto: serial under the kSerialFlops cutoff, pool
/// width above it; explicit widths are honored as-is.
void batch_matmul_bias(const float* w, std::size_t rows, std::size_t cols,
                       const float* x, std::size_t batch, const float* bias,
                       float* z, std::size_t width = 0);

/// z[r][c] += sum_k w[r*cols + k] * x[k][c], ascending k.
void batch_matmul_acc(const float* w, std::size_t rows, std::size_t cols,
                      const float* x, std::size_t batch, float* z,
                      std::size_t width = 0);

/// Transposed product for BPTT upstream deltas:
/// out[k][c] += sum_r w[r*cols + k] * z[r][c], ascending r. Fans out over
/// k (disjoint output rows), so it is width-deterministic like the rest.
void batch_matmul_transpose_acc(const float* w, std::size_t rows,
                                std::size_t cols, const float* z,
                                std::size_t batch, float* out,
                                std::size_t width = 0);

/// Weight-gradient fold, accumulated in double for full-batch training
/// stability: out[r*cols + k] = sum_c a[c*lda + r] * x[k*batch + c] over
/// window-major float gradient rows `a` (one contiguous row of `lda` per
/// window) and a batch-contiguous `[cols × batch]` input plane held in
/// double. Each element is ONE add chain, from 0.0 over ascending c. The
/// outputs are computed in register blocks of up to 8 rows × 4 columns,
/// vectorized across rows, never across windows; every product of two
/// floats is exact in double, so the bits do not depend on the blocking.
/// Serial on the calling lane.
void batch_fold_outer(const float* a, std::size_t lda, std::size_t rows,
                      const double* x, std::size_t cols, std::size_t batch,
                      double* out);

/// Bias-gradient fold: out[r] = sum_c a[c*lda + r], one add chain from 0.0
/// over ascending c per row, vectorized across r.
void batch_fold_rowsum(const float* a, std::size_t lda, std::size_t rows,
                       std::size_t batch, double* out);

}  // namespace esharing::ml
