// GEMM kernels vs. naive references, elementwise ops, and row utilities.

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/matrix.hpp"
#include "linalg/ops.hpp"
#include "util/rng.hpp"

namespace surro::linalg {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (float& v : m.flat()) v = static_cast<float>(rng.normal());
  return m;
}

Matrix naive_gemm(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols(), 0.0f);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a(i, k)) * b(k, j);
      }
      out(i, j) = static_cast<float>(acc);
    }
  }
  return out;
}

void expect_close(const Matrix& a, const Matrix& b, float tol = 1e-4f) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.flat()[i], b.flat()[i], tol) << "at flat index " << i;
  }
}

TEST(Matrix, BasicAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  m(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(m(1, 2), 7.0f);
  EXPECT_FLOAT_EQ(m.row(1)[2], 7.0f);
}

TEST(Matrix, ReshapeKeepsData) {
  Matrix m(2, 3);
  for (std::size_t i = 0; i < 6; ++i) m.flat()[i] = static_cast<float>(i);
  m.reshape(3, 2);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_FLOAT_EQ(m(2, 1), 5.0f);
}

TEST(Matrix, FromRows) {
  const std::vector<float> vals = {1, 2, 3, 4};
  const auto m = Matrix::from_rows(2, 2, vals);
  EXPECT_FLOAT_EQ(m(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(m(1, 0), 3.0f);
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 10 + n));
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  Matrix out;
  gemm(a, b, out);
  expect_close(out, naive_gemm(a, b));
}

TEST_P(GemmShapes, TransposedVariantsMatchNaive) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(99);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix bt = random_matrix(n, k, rng);  // b = bt^T
  Matrix out_nt;
  gemm_nt(a, bt, out_nt);
  // Reference: a * bt^T
  Matrix b(k, n);
  for (std::size_t i = 0; i < static_cast<std::size_t>(k); ++i) {
    for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j) {
      b(i, j) = bt(j, i);
    }
  }
  expect_close(out_nt, naive_gemm(a, b));

  const Matrix at = random_matrix(k, m, rng);  // a2 = at^T
  const Matrix b2 = random_matrix(k, n, rng);
  Matrix out_tn;
  gemm_tn(at, b2, out_tn);
  Matrix a2(m, k);
  for (std::size_t i = 0; i < static_cast<std::size_t>(m); ++i) {
    for (std::size_t j = 0; j < static_cast<std::size_t>(k); ++j) {
      a2(i, j) = at(j, i);
    }
  }
  expect_close(out_tn, naive_gemm(a2, b2));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 4, 5),
                      std::make_tuple(16, 16, 16),
                      std::make_tuple(33, 7, 129),
                      std::make_tuple(64, 128, 32),
                      std::make_tuple(100, 1, 100)));

TEST(Ops, GemmAccAccumulates) {
  util::Rng rng(5);
  const Matrix a = random_matrix(4, 3, rng);
  const Matrix b = random_matrix(3, 5, rng);
  Matrix out(4, 5, 1.0f);
  gemm_acc(a, b, out);
  Matrix expected = naive_gemm(a, b);
  for (float& v : expected.flat()) v += 1.0f;
  expect_close(out, expected);
}

TEST(Ops, AddRowVector) {
  Matrix m(2, 3, 1.0f);
  const std::vector<float> bias = {1.0f, 2.0f, 3.0f};
  add_row_vector(m, bias);
  EXPECT_FLOAT_EQ(m(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(m(1, 2), 4.0f);
}

TEST(Ops, ColSums) {
  Matrix m(3, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    m.flat()[i] = static_cast<float>(i + 1);  // 1..6
  }
  std::vector<float> sums(2, 0.0f);
  col_sums(m, sums);
  EXPECT_FLOAT_EQ(sums[0], 1.0f + 3.0f + 5.0f);
  EXPECT_FLOAT_EQ(sums[1], 2.0f + 4.0f + 6.0f);
}

TEST(Ops, ElementwiseAddSubHadamard) {
  util::Rng rng(6);
  const Matrix a = random_matrix(3, 3, rng);
  const Matrix b = random_matrix(3, 3, rng);
  Matrix sum;
  Matrix diff;
  Matrix prod;
  add(a, b, sum);
  sub(a, b, diff);
  hadamard(a, b, prod);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(sum.flat()[i], a.flat()[i] + b.flat()[i]);
    EXPECT_FLOAT_EQ(diff.flat()[i], a.flat()[i] - b.flat()[i]);
    EXPECT_FLOAT_EQ(prod.flat()[i], a.flat()[i] * b.flat()[i]);
  }
}

TEST(Ops, AxpyAndScale) {
  Matrix x(2, 2, 2.0f);
  Matrix y(2, 2, 1.0f);
  axpy(0.5f, x, y);
  for (const float v : y.flat()) EXPECT_FLOAT_EQ(v, 2.0f);
  scale(y, 3.0f);
  for (const float v : y.flat()) EXPECT_FLOAT_EQ(v, 6.0f);
}

TEST(Ops, SoftmaxRowsBlock) {
  Matrix m(2, 5, 0.0f);
  m(0, 2) = 100.0f;  // block [2,5): softmax concentrates on col 2
  softmax_rows(m, 2, 5);
  EXPECT_NEAR(m(0, 2), 1.0f, 1e-5);
  EXPECT_NEAR(m(0, 3), 0.0f, 1e-5);
  // Columns outside the block untouched.
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
  // Row 1: uniform over 3 entries.
  EXPECT_NEAR(m(1, 2), 1.0f / 3.0f, 1e-5);
  float sum = m(1, 2) + m(1, 3) + m(1, 4);
  EXPECT_NEAR(sum, 1.0f, 1e-6);
}

TEST(Ops, FrobeniusNormAndMean) {
  Matrix m(1, 4);
  m.flat()[0] = 1.0f;
  m.flat()[1] = 2.0f;
  m.flat()[2] = 2.0f;
  m.flat()[3] = 0.0f;
  EXPECT_FLOAT_EQ(frobenius_norm(m), 3.0f);
  EXPECT_FLOAT_EQ(mean_all(m), 1.25f);
}

TEST(Ops, CopyAndGatherRows) {
  Matrix m(4, 2);
  for (std::size_t i = 0; i < 8; ++i) m.flat()[i] = static_cast<float>(i);
  Matrix sub_m;
  copy_rows(m, 1, 3, sub_m);
  EXPECT_EQ(sub_m.rows(), 2u);
  EXPECT_FLOAT_EQ(sub_m(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(sub_m(1, 1), 5.0f);

  const std::vector<std::size_t> idx = {3, 0, 3};
  Matrix gathered;
  gather_rows(m, idx, gathered);
  EXPECT_EQ(gathered.rows(), 3u);
  EXPECT_FLOAT_EQ(gathered(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(gathered(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(gathered(2, 1), 7.0f);
}

}  // namespace
}  // namespace surro::linalg
