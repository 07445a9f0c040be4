#pragma once

/// \file decision_tree.hpp
/// CART-style regression tree over discrete (level-coded) features.
///
/// This is the base learner of the bagging ensemble (paper §3: "a bagging
/// ensemble of decision trees"; §5.2: "a bagging ensemble of 10 random
/// trees"). "Random" follows the Weka RandomTree convention: at every split
/// a random subset of features is considered.
///
/// Split search
/// ------------
/// The search exploits the discreteness of the configuration space: for
/// each candidate feature, per-level (count, sum) statistics are
/// accumulated in one pass and every threshold between adjacent levels is
/// scored by variance reduction — O(n·d + levels·d) per node, no sorting.
/// This matters: Lynceus refits the ensemble for every Gauss–Hermite branch
/// of every simulated exploration path, so tree fitting dominates the
/// optimizer's decision time. The fit scratch is owned by the tree and
/// reused across refits, so a refit at steady state performs no heap
/// allocation.
///
/// Most nodes of a small-history tree hold only one or two distinct
/// configurations (rows), and those close without the histogram scan, in
/// closed forms equal to the scan bit for bit. The check runs after the
/// node's feature-subset draws, so the rng stream is the scan's too:
///   * one configuration: no threshold separates it — a leaf whose mean is
///     the row-order target sum over n;
///   * two configurations a and b: one row-order pass yields total_sum and
///     (n_a, s_a), (n_b, s_b). On a feature where their codes differ, every
///     threshold from the lower code up to the higher one isolates the
///     lower-coded configuration on the left with the same score, and the
///     scan keeps the first: split_code is the lower code. The score
///     depends on which configuration is on the left, and the two
///     orientations need their own scores, s_a²/n_a + (total_sum-s_a)²/n_b
///     and s_b²/n_b + (total_sum-s_b)²/n_a: total_sum - s_a is not s_b in
///     floating point, so one shared score would move trees. Features are
///     walked in the scan's order, the first strictly better score wins,
///     and the fallback to the unsampled features runs under the same
///     no-gain condition as the scan's;
///   * three or more configurations: the scan.
/// tests/tree_fit_reference.hpp keeps the plain scan as the oracle.
///
/// Node layout and batched prediction
/// ----------------------------------
/// Nodes live in one structure-of-arrays layout: a packed routing word
/// `fs` = (feature << 16) | threshold code, a packed child word `lr` =
/// left | (right << 32), and the leaf value and variance. Leaves
/// *self-loop* (left == right == self, threshold == 0xFFFF), so batch
/// routing is a branch-free level-synchronous sweep: every row advances
/// one level per pass, rows already at a leaf spin in place, and after
/// depth() passes each row sits at exactly the leaf the scalar predict()
/// descent reaches. Building, serialization, incremental appends and the
/// scalar descent all use the same arrays. predict_batch() and
/// accumulate_batch() use two routes:
///   * a dense level-mask walk (batch covers most of the space and the
///     FeatureMatrix has precomputed level masks) that intersects row
///     bitmasks per split, and
///   * the level-synchronous sweep (sparse batches, duplicate ids, or
///     mask-less spaces), whose per-row compare/route loop the compiler
///     auto-vectorizes (explicit AVX2 gathers behind LYNCEUS_SIMD, with a
///     runtime CPU check; identical integer routing either way).
/// The scalar sweep is load-port bound, so the packed words matter: one
/// 32-bit and one 64-bit load per row per level.
///
/// What is bit-pinned: the leaf each row lands in, the float leaf
/// value/variance read from it, and the per-row accumulation order of
/// accumulate_batch — all byte-identical to the scalar predict() /
/// predict_stats() path, across routes, build flags and toolchains (the
/// routing is pure integer compare/select; no FP reassociation anywhere).
/// Callers may mix scalar and batch entry points freely.
///
/// Scratch ownership: batch entry points take a caller-owned
/// PredictScratch (BaggingEnsemble owns one per predict chunk); passing
/// nullptr falls back to function-local scratch that allocates per call.
/// With a caller-owned scratch, batches at steady state (warmed to the
/// largest batch size) perform no heap allocation.

#include <cstdint>
#include <vector>

#include "model/regressor.hpp"
#include "util/rng.hpp"

namespace lynceus::model {

/// Caller-owned scratch for the batch prediction entry points (file
/// comment, "Scratch ownership"). Replaces the former thread_local
/// buffers: a thread_local copy per worker thread grew to the largest
/// batch ever seen and was never released; this struct is owned by the
/// predicting ensemble (one slot per predict chunk) and freed with it.
/// Buffers only grow, so steady-state batches are allocation-free once
/// warmed. One scratch must not be used by two concurrent batch calls.
struct PredictScratch {
  // Level-synchronous sweep: current node per batch row, plus the
  // precomputed row*cols code offsets the SIMD gather kernel consumes.
  std::vector<std::int32_t> cur;
  std::vector<std::uint32_t> row_base;
  // Dense level-mask walk.
  std::vector<std::uint64_t> root_mask;
  std::vector<std::uint32_t> pos_of_row;
  std::vector<std::uint64_t> arena;
  std::vector<std::int64_t> stack;
  // Ensemble-level per-row accumulators and id scratch
  // (BaggingEnsemble::predict_rows / predict_all).
  std::vector<double> sum;
  std::vector<double> sumsq;
  std::vector<double> var_sum;
  std::vector<std::uint32_t> ids;
};

struct TreeOptions {
  /// Maximum tree depth (root = 0).
  unsigned max_depth = 30;
  /// Minimum number of samples required to attempt a split.
  unsigned min_samples_split = 2;
  /// Number of features considered per split; 0 means "all features"
  /// (plain CART). The Weka RandomTree default, used by the Lynceus
  /// ensemble, is ⌈log2(d)⌉ + 1.
  unsigned features_per_split = 0;
  /// Whether leaves record the training-target variance (needed only for
  /// the ensemble's TotalVariance mode). When false, predict_stats()
  /// reports variance 0 and fitting skips one pass per leaf — measurable,
  /// since the lookahead engine refits thousands of trees per decision.
  bool leaf_variance = true;
};

class DecisionTree {
 public:
  explicit DecisionTree(TreeOptions options = {});

  /// Fits on the (possibly repeated) rows. `rows.size() == y.size() > 0`.
  void fit(const FeatureMatrix& fm, const std::vector<std::uint32_t>& rows,
           const std::vector<double>& y, util::Rng& rng);

  /// Point prediction (mean of the leaf reached by `row`).
  [[nodiscard]] double predict(const FeatureMatrix& fm,
                               std::uint32_t row) const;

  /// Leaf statistics for `row`: the leaf's training mean and the (biased)
  /// variance of the training targets that fell into it. Enables the
  /// SMAC-style law-of-total-variance combination in the ensemble.
  struct LeafStats {
    double mean = 0.0;
    double variance = 0.0;
  };
  [[nodiscard]] LeafStats predict_stats(const FeatureMatrix& fm,
                                        std::uint32_t row) const;

  /// Batched leaf lookup over the node arrays (see file comment). For
  /// each i in [0, n): writes the leaf mean of row `rows[i]` to
  /// `out_value[i]` and, when `out_variance` is non-null, the leaf
  /// variance to `out_variance[i]`. `rows == nullptr` means the identity
  /// batch (row i = i), which is how predict-all over a whole
  /// FeatureMatrix avoids materializing an index vector. `scratch` is the
  /// caller-owned workspace; nullptr uses function-local scratch (one
  /// allocation per call).
  void predict_batch(const FeatureMatrix& fm, const std::uint32_t* rows,
                     std::size_t n, float* out_value,
                     float* out_variance = nullptr,
                     PredictScratch* scratch = nullptr) const;

  /// Ensemble-fused batch: for each i in [0, n), with v the leaf mean of
  /// row `rows[i]` (as a double), performs `sum[i] += v` and
  /// `sumsq[i] += v*v`, plus `var_sum[i] += leaf variance` when `var_sum`
  /// is non-null. Exactly predict_batch followed by the caller's
  /// accumulation loop — same leaves, same per-row operation order — in a
  /// single walk, which is how BaggingEnsemble avoids materializing
  /// per-tree outputs.
  void accumulate_batch(const FeatureMatrix& fm, const std::uint32_t* rows,
                        std::size_t n, double* sum, double* sumsq,
                        double* var_sum,
                        PredictScratch* scratch = nullptr) const;

  /// --- Incremental refit support (used by BaggingEnsemble's
  /// --- append_and_update; see core/lookahead.hpp for the engine-level
  /// --- determinism contract).

  /// Turns membership capture on: subsequent fit() calls record the
  /// training multiset (rows, y), each sample's leaf and per-node depths,
  /// and reserve buffers so that up to `reserve_extra`
  /// append_incremental() calls after a fit perform no heap allocation.
  void set_incremental(bool on, std::size_t reserve_extra);

  /// True when the tree holds captured membership (fitted while capture
  /// was on), i.e. append_incremental() may be called.
  [[nodiscard]] bool has_membership() const noexcept {
    return !inc_rows_.empty() && node_depth_.size() == node_count();
  }

  /// Appends one training sample to the captured membership and updates
  /// the fitted tree in place: the sample is routed to its leaf, and
  /// either the leaf's (mean, variance) are recomputed over its updated
  /// member set, or — when the leaf is splittable (>= min_samples_split
  /// members below max_depth) — the leaf's subtree is re-split from
  /// scratch over exactly those members, with the same variance-reduction
  /// search and `rng`-driven feature subsetting as fit(). Split decisions
  /// of interior nodes *above* the leaf are left as fitted; this is the
  /// documented approximation of the incremental path (the differential
  /// tests pin its agreement with from-scratch fits). Deterministic given
  /// (fitted state, rng state). Requires has_membership().
  void append_incremental(const FeatureMatrix& fm, std::uint32_t row,
                          double y, util::Rng& rng);

  /// Copies `src`'s fitted state — nodes, depth, captured membership —
  /// into this tree, reusing this tree's buffers (allocation-free once
  /// capacity covers `src`; the engines call this once per simulated
  /// branch). Options must match; the fit scratch is not copied.
  void assign_fitted(const DecisionTree& src);

  /// Serializes the fitted state — node arrays, depth, incremental
  /// capture configuration and membership — as one JSON object
  /// (BaggingEnsemble::save_fit embeds one per tree). Leaf values and
  /// variances are written with round-trip precision, so a load_state()ed
  /// tree predicts bitwise identically. Requires fitted().
  void save_state(util::JsonWriter& w) const;

  /// Restores a save_state() object into this tree (options are NOT
  /// serialized — the same-factory contract of assign_fitted applies).
  /// Throws std::runtime_error on a malformed or inconsistent state.
  void load_state(const util::JsonValue& v);

  [[nodiscard]] bool fitted() const noexcept { return !node_lr_.empty(); }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return node_lr_.size();
  }
  [[nodiscard]] unsigned depth() const noexcept { return depth_; }

  /// How the split search closed the nodes it visited since the last
  /// fit() (file comment, "Split search"): leaves of early-stop nodes are
  /// not counted.
  struct SplitTally {
    std::uint32_t closed_one = 0;  ///< one configuration: leaf, no scan
    std::uint32_t closed_two = 0;  ///< two configurations: closed form
    std::uint32_t scanned = 0;     ///< three or more: histogram scan
  };
  [[nodiscard]] const SplitTally& split_tally() const noexcept {
    return tally_;
  }

  [[nodiscard]] const TreeOptions& options() const noexcept {
    return options_;
  }

 private:
  /// Fit-time scratch, owned by the tree so consecutive refits (the
  /// lookahead engine refits thousands of times per decision) reuse the
  /// buffers instead of reallocating them.
  struct FitScratch {
    std::vector<std::uint32_t> idx;  ///< row ids, partitioned in place
    std::vector<double> y;           ///< targets, kept parallel to idx
    std::vector<std::uint32_t> cnt;  ///< per-level counts (split search)
    std::vector<double> sum;         ///< per-level target sums
    std::vector<std::uint16_t> feature_order;  ///< feature-subset sampling
  };

  struct BuildCtx;
  std::int32_t build(BuildCtx& ctx, std::size_t begin, std::size_t end,
                     unsigned depth);

  /// Dense batch path: routes the whole batch through the node arrays as
  /// row bitmasks intersected with the FeatureMatrix's precomputed level
  /// masks (a split costs mask_words() word-ANDs instead of one comparison
  /// per row), invoking `leaf(batch_position, node_index)` for every
  /// routed row. Returns false — caller falls back to the level-sync
  /// sweep — when masks are unavailable, the batch is sparse relative to
  /// the space, or `rows` contains duplicates.
  template <class LeafFn>
  bool dense_walk(const FeatureMatrix& fm, const std::uint32_t* rows,
                  std::size_t n, PredictScratch& s, const LeafFn& leaf) const;

  /// Capacity-warms every batch-route buffer of `s` (both the dense-walk
  /// and level-sync sets) to the space bound, so the first batch call with
  /// a scratch slot sizes it for every in-space batch regardless of which
  /// route later calls take (steady state stays allocation-free even when
  /// the route flips after warm-up).
  void warm_scratch(const FeatureMatrix& fm, std::size_t n,
                    PredictScratch& s) const;

  /// Level-synchronous sweep (always available): after the call,
  /// `s.cur[i]` is the index of the leaf row `rows[i]` lands in (see file
  /// comment — leaves self-loop, so depth() passes suffice).
  void route_level_sync(const FeatureMatrix& fm, const std::uint32_t* rows,
                        std::size_t n, PredictScratch& s) const;

  /// Appends a self-looped node (a leaf until a split node's children are
  /// patched into node_lr_) and returns its index.
  std::int32_t push_node(std::uint32_t fs, float value, float variance,
                         unsigned depth);
  void reserve_nodes(std::size_t n);
  [[nodiscard]] bool is_leaf(std::size_t i) const noexcept {
    return static_cast<std::uint32_t>(node_lr_[i]) == i;
  }

  /// Leaf index reached by `row` (the scalar predict() descent).
  [[nodiscard]] std::int32_t find_leaf(const FeatureMatrix& fm,
                                       std::uint32_t row) const noexcept;

  /// Pre-reserves nodes/membership/scratch capacity so `inc_reserve_`
  /// appends on a fit of `base_samples` samples never reallocate.
  void reserve_incremental(std::size_t base_samples);

  TreeOptions options_;
  unsigned depth_ = 0;
  FitScratch scratch_;
  SplitTally tally_;

  // The nodes (file comment, "Node layout"): fs = (feature << 16) |
  // threshold code, lr = left | (right << 32); a leaf has lr == i | i << 32
  // and fs == 0xFFFF. Split nodes carry value and variance 0.
  std::vector<std::uint32_t> node_fs_;
  std::vector<std::uint64_t> node_lr_;
  std::vector<float> node_value_;
  std::vector<float> node_variance_;

  bool inc_enabled_ = false;
  std::size_t inc_reserve_ = 0;
  std::size_t inc_base_ = 0;  ///< fit-time sample count (reserve anchor)
  // Captured membership (incremental mode only): the fitted training
  // multiset, each sample's current leaf, and every node's depth (the
  // re-split trigger needs both).
  std::vector<std::uint32_t> inc_rows_;
  std::vector<double> inc_y_;
  std::vector<std::int32_t> leaf_of_;
  std::vector<std::uint32_t> node_depth_;
  // append_incremental gather scratch (the updated leaf's members).
  std::vector<std::uint32_t> gather_rows_;
  std::vector<double> gather_y_;
};

}  // namespace lynceus::model
