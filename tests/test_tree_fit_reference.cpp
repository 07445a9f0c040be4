/// Differential suite: DecisionTree's fit (closed-form small nodes over one
/// node layout) against the plain-scan oracle in tests/tree_fit_reference.hpp.
/// Every case compares the two trees' save_state bytes and the rng state
/// each fit leaves behind — bitwise, since the trajectories depend on both.

#include "tree_fit_reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/workloads.hpp"
#include "model/bagging.hpp"
#include "model/decision_tree.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace lynceus::model {
namespace {

using reference::ScanTree;

template <class Tree>
std::string state_of(const Tree& tree) {
  util::JsonWriter w;
  tree.save_state(w);
  return w.str();
}

void expect_same_rng(const util::Rng& a, const util::Rng& b) {
  const util::Rng::State sa = a.state();
  const util::Rng::State sb = b.state();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sa.s[i], sb.s[i]);
  EXPECT_EQ(sa.has_spare, sb.has_spare);
}

/// Fits both trees on (rows, y) from the same rng seed and requires the
/// same bytes and the same rng state afterwards.
void expect_same_fit(DecisionTree& tree, ScanTree& oracle,
                     const FeatureMatrix& fm,
                     const std::vector<std::uint32_t>& rows,
                     const std::vector<double>& y, std::uint64_t seed) {
  util::Rng rng(seed);
  util::Rng oracle_rng(seed);
  tree.fit(fm, rows, y, rng);
  oracle.fit(fm, rows, y, oracle_rng);
  ASSERT_EQ(state_of(tree), state_of(oracle)) << "seed " << seed;
  expect_same_rng(rng, oracle_rng);
}

/// A fantasy-branch training set: `history` distinct configurations with
/// their costs, bootstrapped the way BaggingEnsemble resamples a tree's
/// rows (n draws with replacement).
void draw_bootstrap(const cloud::Dataset& ds, std::size_t history,
                    util::Rng& rng, std::vector<std::uint32_t>& rows,
                    std::vector<double>& y) {
  const std::size_t size = ds.space().size();
  std::vector<std::uint32_t> hist;
  while (hist.size() < history) {
    const auto id = static_cast<std::uint32_t>(rng.below(size));
    if (std::find(hist.begin(), hist.end(), id) == hist.end()) {
      hist.push_back(id);
    }
  }
  rows.resize(history);
  y.resize(history);
  for (std::size_t i = 0; i < history; ++i) {
    const std::uint32_t id = hist[rng.below(history)];
    rows[i] = id;
    y[i] = ds.cost(id);
  }
}

/// Thousands of bootstraps over one space, with the ensemble's tree
/// options (Weka feature rule), both leaf-variance settings, and trees
/// reused across fits the way an ensemble reuses them.
void run_bootstraps(const cloud::Dataset& ds, std::size_t fits,
                    std::size_t min_history, std::size_t max_history) {
  const FeatureMatrix fm(ds.space());
  TreeOptions opts;
  opts.features_per_split =
      BaggingOptions::weka_features_per_split(fm.cols());
  DecisionTree::SplitTally tally;
  for (const bool leaf_variance : {false, true}) {
    opts.leaf_variance = leaf_variance;
    DecisionTree tree(opts);
    ScanTree oracle(opts);
    util::Rng draw(leaf_variance ? 17 : 11);
    std::vector<std::uint32_t> rows;
    std::vector<double> y;
    for (std::size_t f = 0; f < fits; ++f) {
      const std::size_t history =
          min_history + draw.below(max_history - min_history + 1);
      draw_bootstrap(ds, history, draw, rows, y);
      expect_same_fit(tree, oracle, fm, rows, y, draw());
      if (::testing::Test::HasFatalFailure()) return;
      tally.closed_one += tree.split_tally().closed_one;
      tally.closed_two += tree.split_tally().closed_two;
      tally.scanned += tree.split_tally().scanned;
    }
  }
  // All three node kinds were exercised.
  EXPECT_GT(tally.closed_one, 0U);
  EXPECT_GT(tally.closed_two, 0U);
  EXPECT_GT(tally.scanned, 0U);
}

TEST(TreeFitOracle, ScoutBootstrapsMatchThePlainScan) {
  run_bootstraps(cloud::make_scout_dataset(cloud::scout_job_specs().front()),
                 2000, 2, 30);
}

TEST(TreeFitOracle, TfCnnBootstrapsWithFeatureSubsetsMatchThePlainScan) {
  const auto ds = cloud::make_tensorflow_dataset(cloud::TfModel::CNN);
  ASSERT_LT(BaggingOptions::weka_features_per_split(ds.space().dim_count()),
            ds.space().dim_count());
  run_bootstraps(ds, 2000, 2, 40);
}

space::ConfigSpace grid_space(std::size_t a_levels, std::size_t b_levels,
                              std::size_t c_levels) {
  const auto levels = [](std::size_t k) {
    std::vector<double> v(k);
    for (std::size_t i = 0; i < k; ++i) v[i] = static_cast<double>(i);
    return v;
  };
  return space::ConfigSpace("grid", {space::numeric_param("a", levels(a_levels)),
                                     space::numeric_param("b", levels(b_levels)),
                                     space::numeric_param("c", levels(c_levels))});
}

TEST(TreeFitOracle, ConstantTargetsAndDuplicateOnlyNodes) {
  const auto sp = grid_space(4, 5, 3);
  const FeatureMatrix fm(sp);
  for (const unsigned fps : {0U, 1U, 2U}) {
    TreeOptions opts;
    opts.features_per_split = fps;
    DecisionTree tree(opts);
    ScanTree oracle(opts);
    // One configuration repeated: a leaf without a scan, whatever y says.
    expect_same_fit(tree, oracle, fm, {7, 7, 7, 7}, {1.0, 2.5, -3.0, 0.1},
                    fps + 1);
    EXPECT_EQ(tree.split_tally().closed_one, 1U);
    EXPECT_EQ(tree.node_count(), 1U);
    // Constant targets over many configurations: no split gains anything.
    expect_same_fit(tree, oracle, fm, {0, 3, 7, 12, 40, 59},
                    {5.0, 5.0, 5.0, 5.0, 5.0, 5.0}, fps + 2);
    EXPECT_EQ(tree.node_count(), 1U);
    // Constant targets over two configurations.
    expect_same_fit(tree, oracle, fm, {3, 9, 3, 9, 9}, {2.0, 2.0, 2.0, 2.0, 2.0},
                    fps + 3);
    EXPECT_EQ(tree.node_count(), 1U);
    // Children that hold duplicates only.
    expect_same_fit(tree, oracle, fm, {1, 1, 30, 30, 30, 55, 55},
                    {1.0, 1.0, 9.0, 9.0, 9.0, 4.0, 4.0}, fps + 4);
  }
}

TEST(TreeFitOracle, TwoConfigurationNodesWhoseLowerCodeFlipsBetweenFeatures) {
  const auto sp = grid_space(4, 5, 3);
  const FeatureMatrix fm(sp);
  // The configuration id of levels (a, b, c).
  const auto id = [&](double a, double b, double c) {
    for (std::uint32_t r = 0; r < sp.size(); ++r) {
      if (sp.value(r, 0) == a && sp.value(r, 1) == b && sp.value(r, 2) == c) {
        return r;
      }
    }
    throw std::logic_error("no such configuration");
  };
  // a is lower on feature 0, higher on feature 1, equal on feature 2:
  // the lower-coded configuration — and so the score's orientation —
  // flips between the two features that separate them.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs = {
      {id(0, 4, 1), id(3, 0, 1)},
      {id(2, 1, 0), id(1, 3, 2)},
      {id(1, 2, 2), id(0, 2, 0)}};
  util::Rng draw(5);
  std::size_t two_closed = 0;
  for (const unsigned fps : {0U, 1U, 2U}) {
    TreeOptions opts;
    opts.features_per_split = fps;
    DecisionTree tree(opts);
    ScanTree oracle(opts);
    for (int rep = 0; rep < 400; ++rep) {
      const auto [a, b] = pairs[draw.below(pairs.size())];
      const std::size_t n_a = 1 + draw.below(6);
      const std::size_t n_b = 1 + draw.below(6);
      std::vector<std::uint32_t> rows(n_a, a);
      rows.insert(rows.end(), n_b, b);
      draw.shuffle(rows);  // interleaved: the row-order sums matter too
      // Targets of mixed magnitude, so total_sum - s_a and s_b round
      // apart.
      const double scale =
          std::ldexp(1.0, static_cast<int>(draw.below(40)) - 20);
      std::vector<double> y;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        y.push_back(scale * draw.uniform(-1.0, 3.0) + draw.uniform());
      }
      expect_same_fit(tree, oracle, fm, rows, y, draw());
      if (HasFatalFailure()) return;
      two_closed += tree.split_tally().closed_two;
    }
  }
  EXPECT_GT(two_closed, 0U);
}

TEST(TreeFitOracle, IncrementalResplitsMatchThePlainScan) {
  const auto ds = cloud::make_tensorflow_dataset(cloud::TfModel::CNN);
  const auto scout =
      cloud::make_scout_dataset(cloud::scout_job_specs().front());
  for (const cloud::Dataset* d : {&ds, &scout}) {
    const FeatureMatrix fm(d->space());
    TreeOptions opts;
    opts.features_per_split =
        BaggingOptions::weka_features_per_split(fm.cols());
    opts.leaf_variance = d == &ds;
    util::Rng draw(23);
    for (int rep = 0; rep < 200; ++rep) {
      DecisionTree tree(opts);
      ScanTree oracle(opts);
      tree.set_incremental(true, 4);
      oracle.set_incremental(true, 4);
      std::vector<std::uint32_t> rows;
      std::vector<double> y;
      draw_bootstrap(*d, 3 + draw.below(14), draw, rows, y);
      const std::uint64_t seed = draw();
      expect_same_fit(tree, oracle, fm, rows, y, seed);
      if (HasFatalFailure()) return;
      util::Rng rng(seed + 1);
      util::Rng oracle_rng(seed + 1);
      for (int k = 0; k < 4; ++k) {
        // Mostly rows already in the tree, so leaves re-split over
        // duplicates and two-configuration members as well.
        const std::uint32_t row =
            draw.below(2) == 0
                ? rows[draw.below(rows.size())]
                : static_cast<std::uint32_t>(draw.below(fm.rows()));
        const double target = d->cost(row) * (0.5 + draw.uniform());
        tree.append_incremental(fm, row, target, rng);
        oracle.append_incremental(fm, row, target, oracle_rng);
        ASSERT_EQ(state_of(tree), state_of(oracle))
            << "rep " << rep << " append " << k;
        expect_same_rng(rng, oracle_rng);
      }
    }
  }
}

}  // namespace
}  // namespace lynceus::model
