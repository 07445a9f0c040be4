#pragma once

/// \file tree_fit_reference.hpp
/// The plain-scan tree fit — the semantics oracle for DecisionTree's fit
/// and incremental re-split.
///
/// This is the split search as it stood before closed-form nodes: every
/// node that may split runs the per-level histogram scan, whatever the
/// number of distinct configurations it holds, and nodes are plain
/// array-of-structs records. The scan takes one feature at a time; each
/// (feature, level) bucket still sums its targets in row order, so its
/// sums equal those of the production tree's fused multi-feature pass.
/// fit(), append_incremental() and save_state() follow DecisionTree's
/// contract, and save_state() writes the same JSON, so the differential
/// suite (tests/test_tree_fit_reference.cpp) compares the two trees' bytes
/// and the rng state each leaves behind.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "model/decision_tree.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace lynceus::reference {

class ScanTree {
 public:
  explicit ScanTree(model::TreeOptions options = {}) : options_(options) {}

  void set_incremental(bool on, std::size_t reserve_extra) {
    inc_enabled_ = on;
    inc_reserve_ = on ? reserve_extra : 0;
    if (!on) {
      inc_rows_.clear();
      inc_y_.clear();
      leaf_of_.clear();
      node_depth_.clear();
    }
  }

  void fit(const model::FeatureMatrix& fm,
           const std::vector<std::uint32_t>& rows,
           const std::vector<double>& y, util::Rng& rng) {
    if (rows.empty() || rows.size() != y.size()) {
      throw std::invalid_argument("ScanTree::fit: bad training set");
    }
    nodes_.clear();
    node_depth_.clear();
    depth_ = 0;
    if (inc_enabled_) inc_base_ = rows.size();
    reset_scratch(fm);
    idx_.assign(rows.begin(), rows.end());
    ys_.assign(y.begin(), y.end());
    build(fm, rng, 0, idx_.size(), 0);
    if (inc_enabled_) {
      inc_rows_.assign(rows.begin(), rows.end());
      inc_y_.assign(y.begin(), y.end());
      leaf_of_.resize(rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        leaf_of_[i] = find_leaf(fm, rows[i]);
      }
    }
  }

  void append_incremental(const model::FeatureMatrix& fm, std::uint32_t row,
                          double y, util::Rng& rng) {
    const std::int32_t leaf = find_leaf(fm, row);
    inc_rows_.push_back(row);
    inc_y_.push_back(y);
    leaf_of_.push_back(leaf);
    std::vector<std::uint32_t> rows;
    std::vector<double> ys;
    for (std::size_t i = 0; i < inc_rows_.size(); ++i) {
      if (leaf_of_[i] == leaf) {
        rows.push_back(inc_rows_[i]);
        ys.push_back(inc_y_[i]);
      }
    }
    const std::size_t m = rows.size();
    const unsigned at_depth = node_depth_[static_cast<std::size_t>(leaf)];
    if (m >= options_.min_samples_split && at_depth < options_.max_depth) {
      reset_scratch(fm);
      idx_ = rows;
      ys_ = ys;
      const std::int32_t sub = build(fm, rng, 0, idx_.size(), at_depth);
      nodes_[static_cast<std::size_t>(leaf)] =
          nodes_[static_cast<std::size_t>(sub)];
      if (nodes_[static_cast<std::size_t>(leaf)].feature == kLeaf) {
        nodes_.pop_back();
        node_depth_.pop_back();
      } else {
        for (std::size_t i = 0; i < inc_rows_.size(); ++i) {
          if (leaf_of_[i] == leaf) leaf_of_[i] = find_leaf(fm, inc_rows_[i]);
        }
      }
      return;
    }
    double sum = 0.0;
    for (double v : ys) sum += v;
    const double mean = sum / static_cast<double>(m);
    Node& nd = nodes_[static_cast<std::size_t>(leaf)];
    nd.value = static_cast<float>(mean);
    if (options_.leaf_variance) {
      double sq = 0.0;
      for (double v : ys) {
        const double d = v - mean;
        sq += d * d;
      }
      nd.variance = static_cast<float>(sq / static_cast<double>(m));
    }
  }

  /// DecisionTree::save_state's JSON, field for field.
  void save_state(util::JsonWriter& w) const {
    w.begin_object();
    w.key("depth").value(static_cast<std::uint64_t>(depth_));
    w.key("left").begin_array();
    for (const Node& n : nodes_) w.value(static_cast<std::int64_t>(n.left));
    w.end_array();
    w.key("right").begin_array();
    for (const Node& n : nodes_) w.value(static_cast<std::int64_t>(n.right));
    w.end_array();
    w.key("feature").begin_array();
    for (const Node& n : nodes_) {
      w.value(static_cast<std::int64_t>(n.feature));
    }
    w.end_array();
    w.key("split").begin_array();
    for (const Node& n : nodes_) {
      w.value(static_cast<std::uint64_t>(n.split_code));
    }
    w.end_array();
    w.key("value").begin_array();
    for (const Node& n : nodes_) w.value_exact(static_cast<double>(n.value));
    w.end_array();
    w.key("variance").begin_array();
    for (const Node& n : nodes_) {
      w.value_exact(static_cast<double>(n.variance));
    }
    w.end_array();
    w.key("inc").begin_object();
    w.key("enabled").value(inc_enabled_);
    w.key("reserve").value(static_cast<std::uint64_t>(inc_reserve_));
    w.key("base").value(static_cast<std::uint64_t>(inc_base_));
    w.key("rows").begin_array();
    for (std::uint32_t r : inc_rows_) w.value(static_cast<std::uint64_t>(r));
    w.end_array();
    w.key("y").begin_array();
    for (double v : inc_y_) w.value_exact(v);
    w.end_array();
    w.key("leaf_of").begin_array();
    for (std::int32_t l : leaf_of_) w.value(static_cast<std::int64_t>(l));
    w.end_array();
    w.key("node_depth").begin_array();
    for (std::uint32_t d : node_depth_) {
      w.value(static_cast<std::uint64_t>(d));
    }
    w.end_array();
    w.end_object();
    w.end_object();
  }

 private:
  struct Node {
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int16_t feature = -1;
    std::uint16_t split_code = 0;
    float value = 0.0F;
    float variance = 0.0F;
  };
  static constexpr std::int16_t kLeaf = -1;

  void reset_scratch(const model::FeatureMatrix& fm) {
    cnt_.assign(fm.cols() * fm.max_level_count(), 0);
    sum_.assign(fm.cols() * fm.max_level_count(), 0.0);
    feature_order_.resize(fm.cols());
    for (std::size_t d = 0; d < fm.cols(); ++d) {
      feature_order_[d] = static_cast<std::uint16_t>(d);
    }
  }

  std::int32_t find_leaf(const model::FeatureMatrix& fm,
                         std::uint32_t row) const {
    std::int32_t node = 0;
    while (nodes_[static_cast<std::size_t>(node)].feature != kLeaf) {
      const Node& nd = nodes_[static_cast<std::size_t>(node)];
      node = fm.code(row, static_cast<std::size_t>(nd.feature)) <=
                     nd.split_code
                 ? nd.left
                 : nd.right;
    }
    return node;
  }

  std::int32_t build(const model::FeatureMatrix& fm, util::Rng& rng,
                     std::size_t begin, std::size_t end, unsigned depth) {
    const std::size_t n = end - begin;
    depth_ = std::max(depth_, depth);
    double total_sum = 0.0;

    auto make_leaf = [&](double node_mean) {
      Node leaf;
      leaf.value = static_cast<float>(node_mean);
      if (options_.leaf_variance) {
        double sq = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          const double d = ys_[i] - node_mean;
          sq += d * d;
        }
        leaf.variance = static_cast<float>(sq / static_cast<double>(n));
      }
      nodes_.push_back(leaf);
      if (inc_enabled_) node_depth_.push_back(depth);
      return static_cast<std::int32_t>(nodes_.size() - 1);
    };

    if (n < options_.min_samples_split || depth >= options_.max_depth) {
      for (std::size_t i = begin; i < end; ++i) total_sum += ys_[i];
      return make_leaf(total_sum / static_cast<double>(n));
    }

    std::size_t feature_count = fm.cols();
    if (options_.features_per_split != 0 &&
        options_.features_per_split < fm.cols()) {
      feature_count = options_.features_per_split;
      for (std::size_t i = 0; i < feature_count; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(rng.below(fm.cols() - i));
        std::swap(feature_order_[i], feature_order_[j]);
      }
    }

    double best_score = -std::numeric_limits<double>::infinity();
    std::int16_t best_feature = kLeaf;
    std::uint16_t best_code = 0;
    const std::size_t stride = fm.max_level_count();
    // One feature at a time: each (feature, level) bucket receives its
    // targets in row order, as in the fused multi-feature pass.
    auto scan_feature = [&](std::size_t k, bool accumulate_total) {
      const std::uint16_t f = feature_order_[k];
      std::uint32_t* cnt = cnt_.data() + k * stride;
      double* sum = sum_.data() + k * stride;
      const std::uint16_t levels = fm.level_count(f);
      for (std::uint16_t c = 0; c < levels; ++c) {
        cnt[c] = 0;
        sum[c] = 0.0;
      }
      for (std::size_t i = begin; i < end; ++i) {
        if (accumulate_total) total_sum += ys_[i];
        const std::uint16_t c = fm.code(idx_[i], f);
        ++cnt[c];
        sum[c] += ys_[i];
      }
      std::uint32_t n_left = 0;
      double s_left = 0.0;
      for (std::uint16_t c = 0; c + 1 < levels; ++c) {
        n_left += cnt[c];
        s_left += sum[c];
        if (n_left == 0 || n_left == n) continue;
        const auto n_right = static_cast<double>(n - n_left);
        const double s_right = total_sum - s_left;
        const double score = s_left * s_left / static_cast<double>(n_left) +
                             s_right * s_right / n_right;
        if (score > best_score) {
          best_score = score;
          best_feature = static_cast<std::int16_t>(f);
          best_code = c;
        }
      }
    };

    for (std::size_t k = 0; k < feature_count; ++k) scan_feature(k, k == 0);
    const double parent_score =
        total_sum * total_sum / static_cast<double>(n);
    if (best_score <= parent_score + 1e-12 && feature_count < fm.cols()) {
      for (std::size_t k = feature_count; k < fm.cols(); ++k) {
        scan_feature(k, false);
      }
    }
    if (best_feature == kLeaf || best_score <= parent_score + 1e-12) {
      return make_leaf(total_sum / static_cast<double>(n));
    }

    std::size_t mid = begin;
    for (std::size_t i = begin; i < end; ++i) {
      if (fm.code(idx_[i], static_cast<std::size_t>(best_feature)) <=
          best_code) {
        std::swap(idx_[i], idx_[mid]);
        std::swap(ys_[i], ys_[mid]);
        ++mid;
      }
    }
    const auto self = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    if (inc_enabled_) node_depth_.push_back(depth);
    nodes_[static_cast<std::size_t>(self)].feature = best_feature;
    nodes_[static_cast<std::size_t>(self)].split_code = best_code;
    const std::int32_t left = build(fm, rng, begin, mid, depth + 1);
    const std::int32_t right = build(fm, rng, mid, end, depth + 1);
    nodes_[static_cast<std::size_t>(self)].left = left;
    nodes_[static_cast<std::size_t>(self)].right = right;
    return self;
  }

  model::TreeOptions options_;
  std::vector<Node> nodes_;
  unsigned depth_ = 0;
  std::vector<std::uint32_t> idx_;
  std::vector<double> ys_;
  std::vector<std::uint32_t> cnt_;
  std::vector<double> sum_;
  std::vector<std::uint16_t> feature_order_;

  bool inc_enabled_ = false;
  std::size_t inc_reserve_ = 0;
  std::size_t inc_base_ = 0;
  std::vector<std::uint32_t> inc_rows_;
  std::vector<double> inc_y_;
  std::vector<std::int32_t> leaf_of_;
  std::vector<std::uint32_t> node_depth_;
};

}  // namespace lynceus::reference
