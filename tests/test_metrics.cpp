// Metric correctness on analytic cases: W1, JSD, association measures,
// DCR, MLEF, and the Table I report.

#include <gtest/gtest.h>

#include <cmath>

#include "metrics/correlation.hpp"
#include "metrics/dcr.hpp"
#include "metrics/jsd.hpp"
#include "metrics/mlef.hpp"
#include "metrics/report.hpp"
#include "metrics/wasserstein.hpp"
#include "util/rng.hpp"

namespace surro::metrics {
namespace {

// ------------------------------------------------------------- wasserstein --

TEST(Wasserstein, ZeroForIdenticalSamples) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  EXPECT_NEAR(wasserstein1(x, x), 0.0, 1e-12);
}

TEST(Wasserstein, ShiftEqualsDistance) {
  // W1 between X and X + c is exactly |c|.
  util::Rng rng(1);
  std::vector<double> x(1000);
  for (auto& v : x) v = rng.normal();
  std::vector<double> y(x);
  for (auto& v : y) v += 2.5;
  EXPECT_NEAR(wasserstein1(x, y), 2.5, 1e-9);
}

TEST(Wasserstein, KnownTwoPointValue) {
  // {0} vs {1}: mass 1 moved distance 1.
  EXPECT_NEAR(wasserstein1(std::vector<double>{0.0},
                           std::vector<double>{1.0}),
              1.0, 1e-12);
}

TEST(Wasserstein, UnequalSampleSizes) {
  // {0,1} vs {0.5}: each half of the mass moves 0.5.
  const std::vector<double> x = {0.0, 1.0};
  const std::vector<double> y = {0.5};
  EXPECT_NEAR(wasserstein1(x, y), 0.5, 1e-12);
}

TEST(Wasserstein, SymmetricAndNonNegative) {
  util::Rng rng(2);
  std::vector<double> x(300);
  std::vector<double> y(200);
  for (auto& v : x) v = rng.lognormal(0.0, 1.0);
  for (auto& v : y) v = rng.lognormal(0.5, 0.8);
  const double d1 = wasserstein1(x, y);
  const double d2 = wasserstein1(y, x);
  EXPECT_GT(d1, 0.0);
  EXPECT_NEAR(d1, d2, 1e-9);
}

TEST(Wasserstein, TriangleInequalitySampled) {
  util::Rng rng(3);
  std::vector<double> x(200);
  std::vector<double> y(200);
  std::vector<double> z(200);
  for (auto& v : x) v = rng.normal(0.0, 1.0);
  for (auto& v : y) v = rng.normal(1.0, 1.5);
  for (auto& v : z) v = rng.normal(-1.0, 0.5);
  EXPECT_LE(wasserstein1(x, z),
            wasserstein1(x, y) + wasserstein1(y, z) + 1e-9);
}

TEST(Wasserstein, EmptyThrows) {
  EXPECT_THROW((void)wasserstein1({}, std::vector<double>{1.0}),
               std::invalid_argument);
}

// -------------------------------------------------------------------- jsd --

TEST(Jsd, ZeroForIdenticalDistributions) {
  const std::vector<double> p = {0.2, 0.3, 0.5};
  EXPECT_NEAR(jensen_shannon(p, p), 0.0, 1e-12);
}

TEST(Jsd, OneForDisjointSupport) {
  const std::vector<double> p = {1.0, 0.0};
  const std::vector<double> q = {0.0, 1.0};
  EXPECT_NEAR(jensen_shannon(p, q), 1.0, 1e-12);  // base-2 log
}

TEST(Jsd, SymmetricAndBounded) {
  const std::vector<double> p = {0.7, 0.2, 0.1};
  const std::vector<double> q = {0.1, 0.6, 0.3};
  const double d = jensen_shannon(p, q);
  EXPECT_NEAR(d, jensen_shannon(q, p), 1e-12);
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 1.0);
}

TEST(Jsd, LengthMismatchThrows) {
  EXPECT_THROW((void)jensen_shannon(std::vector<double>{1.0},
                                    std::vector<double>{0.5, 0.5}),
               std::invalid_argument);
}

// ------------------------------------------------------------- correlation --

TEST(CorrelationRatio, PerfectSeparationIsOne) {
  const std::vector<std::int32_t> codes = {0, 0, 1, 1};
  const std::vector<double> values = {1.0, 1.0, 5.0, 5.0};
  EXPECT_NEAR(correlation_ratio(codes, values, 2), 1.0, 1e-12);
}

TEST(CorrelationRatio, NoAssociationIsZero) {
  const std::vector<std::int32_t> codes = {0, 1, 0, 1};
  const std::vector<double> values = {1.0, 1.0, 5.0, 5.0};
  EXPECT_NEAR(correlation_ratio(codes, values, 2), 0.0, 1e-12);
}

TEST(TheilsU, DeterministicRelationIsOne) {
  // x fully determined by y.
  const std::vector<std::int32_t> y = {0, 1, 2, 0, 1, 2};
  const std::vector<std::int32_t> x = {0, 1, 0, 0, 1, 0};
  EXPECT_NEAR(theils_u(x, 2, y, 3), 1.0, 1e-12);
}

TEST(TheilsU, IndependentIsZero) {
  std::vector<std::int32_t> x;
  std::vector<std::int32_t> y;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      for (int rep = 0; rep < 25; ++rep) {
        x.push_back(a);
        y.push_back(b);
      }
    }
  }
  EXPECT_NEAR(theils_u(x, 2, y, 2), 0.0, 1e-12);
}

TEST(TheilsU, AsymmetricInGeneral) {
  // y refines x: knowing y determines x, but not vice versa.
  const std::vector<std::int32_t> y = {0, 1, 2, 3, 0, 1, 2, 3};
  const std::vector<std::int32_t> x = {0, 0, 1, 1, 0, 0, 1, 1};
  const double u_x_given_y = theils_u(x, 2, y, 4);
  const double u_y_given_x = theils_u(y, 4, x, 2);
  EXPECT_NEAR(u_x_given_y, 1.0, 1e-12);
  EXPECT_LT(u_y_given_x, 1.0);
}

tabular::Table correlated_table(std::size_t n, std::uint64_t seed,
                                bool correlated) {
  tabular::Schema schema({{"a", tabular::ColumnKind::kNumerical},
                          {"g", tabular::ColumnKind::kCategorical},
                          {"b", tabular::ColumnKind::kNumerical}});
  tabular::Table t(schema);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.normal();
    const double b = correlated ? a * 2.0 + rng.normal() * 0.1
                                : rng.normal();
    const std::size_t g =
        correlated ? (a > 0 ? 0u : 1u) : rng.uniform_index(2);
    auto row = t.make_row();
    row.set(0, a);
    row.set(1, std::string(g == 0 ? "hi" : "lo"));
    row.set(2, b);
    t.append_row(row);
  }
  return t;
}

TEST(AssociationMatrix, DetectsStructure) {
  const auto t = correlated_table(2000, 4, true);
  const auto m = association_matrix(t);
  EXPECT_EQ(m.n, 3u);
  EXPECT_NEAR(m.at(0, 0), 1.0, 1e-12);           // diagonal
  EXPECT_GT(m.at(0, 2), 0.95);                   // a-b Pearson
  EXPECT_GT(m.at(1, 0), 0.7);                    // g-a correlation ratio
}

TEST(AssociationMatrix, NearZeroWhenIndependent) {
  const auto t = correlated_table(3000, 5, false);
  const auto m = association_matrix(t);
  EXPECT_LT(std::abs(m.at(0, 2)), 0.08);
  EXPECT_LT(m.at(1, 0), 0.08);
}

TEST(DiffCorr, ZeroForSameTable) {
  const auto t = correlated_table(500, 6, true);
  EXPECT_NEAR(diff_corr(t, t), 0.0, 1e-12);
}

TEST(DiffCorr, LargeForStructureLoss) {
  const auto real = correlated_table(2000, 7, true);
  const auto fake = correlated_table(2000, 8, false);
  EXPECT_GT(diff_corr(real, fake), 0.3);
}

// -------------------------------------------------------------------- dcr --

tabular::Table dcr_table(const std::vector<double>& xs,
                         const std::vector<std::string>& labels) {
  tabular::Schema schema({{"x", tabular::ColumnKind::kNumerical},
                          {"c", tabular::ColumnKind::kCategorical}});
  tabular::Table t(schema);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    auto row = t.make_row();
    row.set(0, xs[i]);
    row.set(1, labels[i]);
    t.append_row(row);
  }
  return t;
}

TEST(Dcr, ZeroForCopiedRows) {
  const auto train = dcr_table({0.0, 1.0, 2.0}, {"a", "b", "a"});
  EXPECT_NEAR(mean_dcr(train, train), 0.0, 1e-9);
}

TEST(Dcr, CategoricalMismatchCostsOne) {
  const auto train = dcr_table({0.0}, {"a"});
  auto synth = dcr_table({0.0}, {"a"});
  synth.intern(1, "b");
  // Build a synthetic row with same x but different label.
  tabular::Table synth2 = dcr_table({0.0, 0.0}, {"a", "b"});
  const std::vector<std::size_t> last = {1};
  const auto only_b = synth2.select_rows(last);
  EXPECT_NEAR(mean_dcr(train, only_b), 1.0, 1e-6);
}

TEST(Dcr, NumericDistanceScaled) {
  // Train range [0, 10]; synthetic point at 5 has nearest 0 or 10 -> scaled
  // distance 0.5.
  const auto train = dcr_table({0.0, 10.0}, {"a", "a"});
  const auto synth = dcr_table({5.0}, {"a"});
  EXPECT_NEAR(mean_dcr(train, synth), 0.5, 1e-6);
}

TEST(Dcr, CapsAreRespected) {
  util::Rng rng(9);
  std::vector<double> xs(100);
  std::vector<std::string> labels(100, "a");
  for (auto& x : xs) x = rng.uniform();
  const auto train = dcr_table(xs, labels);
  DcrConfig cfg;
  cfg.max_train_rows = 10;
  cfg.max_synth_rows = 7;
  const auto d = dcr_distances(train, train, cfg);
  EXPECT_EQ(d.size(), 7u);
}

TEST(Dcr, UnseenLabelNeverMatches) {
  const auto train = dcr_table({0.5}, {"a"});
  tabular::Table synth = dcr_table({0.5, 0.5}, {"a", "ZZZ"});
  const std::vector<std::size_t> last = {1};
  EXPECT_NEAR(mean_dcr(train, synth.select_rows(last)), 1.0, 1e-6);
}

// ------------------------------------------------------------------- mlef --

tabular::Table mlef_table(std::size_t n, std::uint64_t seed) {
  tabular::Schema schema({{"f", tabular::ColumnKind::kNumerical},
                          {"c", tabular::ColumnKind::kCategorical},
                          {"workload", tabular::ColumnKind::kNumerical}});
  tabular::Table t(schema);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double f = rng.uniform(0.0, 4.0);
    const std::size_t c = rng.uniform_index(2);
    const double w = std::exp(f + (c == 0 ? 0.0 : 1.0)) *
                     rng.lognormal(0.0, 0.05);
    auto row = t.make_row();
    row.set(0, f);
    row.set(1, std::string(c == 0 ? "s" : "l"));
    row.set(2, w);
    t.append_row(row);
  }
  return t;
}

TEST(Mlef, LogTransformApplied) {
  const auto t = mlef_table(10, 10);
  MlefConfig cfg;
  const auto logt = with_log_target(t, cfg);
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_NEAR(logt.numerical(2)[r], std::log1p(t.numerical(2)[r]), 1e-12);
  }
}

TEST(Mlef, InformativeTrainingBeatsNoise) {
  const auto train = mlef_table(2000, 11);
  const auto test = mlef_table(500, 12);
  // Noise table: same schema, shuffled target.
  tabular::Table noise = mlef_table(2000, 13);
  {
    util::Rng rng(14);
    auto target = noise.numerical_mut(2);
    for (std::size_t i = target.size(); i > 1; --i) {
      std::swap(target[i - 1], target[rng.uniform_index(i)]);
    }
  }
  MlefConfig cfg;
  cfg.boosting.iterations = 40;
  cfg.boosting.tree.max_depth = 5;
  const double good = mlef_mse(train, test, cfg);
  const double bad = mlef_mse(noise, test, cfg);
  EXPECT_LT(good, bad * 0.5);
}

TEST(Mlef, DiffIsSimpleSubtraction) {
  EXPECT_DOUBLE_EQ(diff_mlef(5.0, 2.0), 3.0);
}

// ------------------------------------------------------------------ report --

std::vector<ModelScore> paper_scores() {
  return {{"TVAE", 0.961, 0.806, 0.653, 0.143, 5.875},
          {"CTABGAN+", 1.0, 0.820, 0.658, 0.105, 10.464},
          {"SMOTE", 0.871, 0.799, 0.011, 0.001, 0.058},
          {"TabDDPM", 0.874, 0.799, 0.036, 0.025, 0.826}};
}

TEST(Report, RendersAllModels) {
  const auto table = render_table1(paper_scores());
  EXPECT_NE(table.find("TVAE"), std::string::npos);
  EXPECT_NE(table.find("TabDDPM"), std::string::npos);
  EXPECT_NE(table.find("diff-MLEF"), std::string::npos);
}

TEST(Report, CsvHasHeaderAndRows) {
  const auto csv = scores_to_csv(paper_scores());
  EXPECT_EQ(csv.find("model,wd,jsd"), 0u);
  EXPECT_NE(csv.find("SMOTE"), std::string::npos);
}

TEST(Report, PaperShapeChecksPassOnPaperNumbers) {
  const auto lines = check_paper_shape(paper_scores());
  for (const auto& line : lines) {
    EXPECT_EQ(line.rfind("[PASS]", 0), 0u) << line;
  }
}

TEST(Report, ShapeCheckFailsWhenSmoteLeaksDcr) {
  auto scores = paper_scores();
  scores[2].dcr = 99.0;  // SMOTE suddenly "private"
  const auto lines = check_paper_shape(scores);
  bool any_fail = false;
  for (const auto& line : lines) any_fail |= line.rfind("[FAIL]", 0) == 0;
  EXPECT_TRUE(any_fail);
}

TEST(Report, MissingModelThrows) {
  std::vector<ModelScore> incomplete = {{"SMOTE", 0, 0, 0, 0, 0}};
  EXPECT_THROW(check_paper_shape(incomplete), std::invalid_argument);
}

TEST(Report, JsonListsEveryModel) {
  const auto json = scores_to_json(paper_scores());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"model\":\"SMOTE\""), std::string::npos);
  EXPECT_NE(json.find("\"diff_mlef\":"), std::string::npos);
}

// ------------------------------------------- parallel-vs-serial equivalence --
// The metric hot paths fan out over util::ThreadPool; every column / matrix
// cell / query writes its own slot, so `threads` must never change a bit of
// the result. These tests pin that contract (the scenario-matrix engine and
// the CI benchmark trajectories rely on it).

/// Mixed table with several numerical and categorical columns, sized so the
/// parallel paths actually split work.
tabular::Table mixed_table(std::size_t n, std::uint64_t seed) {
  tabular::Schema schema({{"n0", tabular::ColumnKind::kNumerical},
                          {"c0", tabular::ColumnKind::kCategorical},
                          {"n1", tabular::ColumnKind::kNumerical},
                          {"c1", tabular::ColumnKind::kCategorical},
                          {"n2", tabular::ColumnKind::kNumerical},
                          {"c2", tabular::ColumnKind::kCategorical}});
  tabular::Table t(schema);
  util::Rng rng(seed);
  const char* c0[] = {"a", "b", "c"};
  const char* c1[] = {"x", "y"};
  const char* c2[] = {"p", "q", "r", "s"};
  for (std::size_t i = 0; i < n; ++i) {
    auto row = t.make_row();
    row.set(0, rng.normal());
    row.set(1, std::string(c0[rng.uniform_index(3)]));
    row.set(2, rng.lognormal(0.0, 1.0));
    row.set(3, std::string(c1[rng.uniform_index(2)]));
    row.set(4, rng.uniform() * 100.0);
    row.set(5, std::string(c2[rng.uniform_index(4)]));
    t.append_row(row);
  }
  return t;
}

TEST(ParallelEquivalence, WassersteinBitwise) {
  const auto real = mixed_table(3000, 21);
  const auto synth = mixed_table(2500, 22);
  const auto serial = per_feature_wasserstein(real, synth, /*threads=*/1);
  const auto parallel = per_feature_wasserstein(real, synth, /*threads=*/0);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "column " << i;
  }
  EXPECT_EQ(mean_wasserstein(real, synth, 1),
            mean_wasserstein(real, synth, 4));
}

TEST(ParallelEquivalence, JsdBitwise) {
  const auto real = mixed_table(3000, 23);
  const auto synth = mixed_table(2500, 24);
  const auto serial = per_feature_jsd(real, synth, /*threads=*/1);
  const auto parallel = per_feature_jsd(real, synth, /*threads=*/0);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "column " << i;
  }
}

TEST(ParallelEquivalence, AssociationMatrixBitwise) {
  const auto t = mixed_table(2000, 25);
  const auto serial = association_matrix(t, /*threads=*/1);
  const auto parallel = association_matrix(t, /*threads=*/0);
  ASSERT_EQ(serial.values.size(), parallel.values.size());
  for (std::size_t i = 0; i < serial.values.size(); ++i) {
    EXPECT_EQ(serial.values[i], parallel.values[i]) << "cell " << i;
  }
  EXPECT_EQ(diff_corr(t, mixed_table(2000, 26), 1),
            diff_corr(t, mixed_table(2000, 26), 3));
}

TEST(ParallelEquivalence, DcrBitwisePerBackend) {
  const auto train = mixed_table(1500, 27);
  const auto synth = mixed_table(800, 28);
  for (const auto backend : {DcrBackend::kBruteForce, DcrBackend::kKdTree}) {
    DcrConfig serial_cfg;
    serial_cfg.backend = backend;
    serial_cfg.threads = 1;
    DcrConfig parallel_cfg = serial_cfg;
    parallel_cfg.threads = 0;
    const auto serial = dcr_distances(train, synth, serial_cfg);
    const auto parallel = dcr_distances(train, synth, parallel_cfg);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t q = 0; q < serial.size(); ++q) {
      EXPECT_EQ(serial[q], parallel[q]) << "query " << q;
    }
  }
}

TEST(Dcr, KdTreeAgreesWithBruteForce) {
  const auto train = mixed_table(1200, 29);
  const auto synth = mixed_table(700, 30);
  DcrConfig brute;
  brute.backend = DcrBackend::kBruteForce;
  DcrConfig kd;
  kd.backend = DcrBackend::kKdTree;
  const auto db = dcr_distances(train, synth, brute);
  const auto dk = dcr_distances(train, synth, kd);
  ASSERT_EQ(db.size(), dk.size());
  for (std::size_t q = 0; q < db.size(); ++q) {
    // Same metric, different accumulation (one-hot embedding vs. code
    // compare) — agree to float precision.
    EXPECT_NEAR(db[q], dk[q], 1e-4) << "query " << q;
  }
}

TEST(Dcr, AutoBackendFollowsDimensionality) {
  // 3 numericals + one-hot widths (3+1)+(2+1)+(4+1) = 15 dims <= 16.
  const auto low_card = mixed_table(100, 31);
  EXPECT_EQ(dcr_backend_for(low_card), DcrBackend::kKdTree);

  DcrConfig tight;
  tight.kdtree_max_dims = 8;
  EXPECT_EQ(dcr_backend_for(low_card, tight), DcrBackend::kBruteForce);

  DcrConfig forced;
  forced.backend = DcrBackend::kBruteForce;
  EXPECT_EQ(dcr_backend_for(low_card, forced), DcrBackend::kBruteForce);
}

}  // namespace
}  // namespace surro::metrics
