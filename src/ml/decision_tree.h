#ifndef MODIS_ML_DECISION_TREE_H_
#define MODIS_ML_DECISION_TREE_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"

namespace modis {

/// Hyperparameters shared by all tree learners.
struct TreeOptions {
  int max_depth = 6;
  size_t min_samples_leaf = 2;
  /// Histogram bins per feature: every split threshold is one of at most
  /// max_bins - 1 cut points fixed once per fit (see FeatureBins). Small
  /// values give the histogram-binned behaviour of LightGBM-style
  /// learners; <= 0 means the 65536-bin ceiling.
  int max_bins = 64;
  /// Fraction of features considered per split (1.0 = all). Random forests
  /// use sqrt(d)/d.
  double feature_fraction = 1.0;
};

/// Histogram bins of one training matrix — the split-finding technique of
/// LightGBM (Ke et al., NeurIPS 2017). Built once per ensemble fit and
/// shared by all its trees, so a node's split search is one pass over its
/// rows into per-bin statistics plus one scan over the bins, instead of a
/// sort per feature per node.
///
/// Per feature, the cut points are the midpoints between adjacent distinct
/// values when there are at most max_bins of them (every boundary is a
/// candidate), else the midpoints just below max_bins - 1 evenly spaced
/// quantiles. A value's code is the number of cuts below it, so
/// `x <= cuts[b]` exactly when `code <= b`: routing rows by code agrees
/// with routing them by threshold. NaN gets the last bin, which
/// `x <= threshold` also sends right.
class FeatureBins {
 public:
  FeatureBins(const Matrix& x, int max_bins);

  size_t rows() const { return rows_; }
  size_t features() const { return cuts_.size(); }
  /// The bin codes of feature f, one per row of the binned matrix.
  const uint16_t* codes(size_t f) const { return codes_.data() + f * rows_; }
  /// Ascending cut points of feature f.
  const std::vector<double>& cuts(size_t f) const { return cuts_[f]; }
  size_t num_bins(size_t f) const { return cuts_[f].size() + 1; }

 private:
  size_t rows_ = 0;
  std::vector<uint16_t> codes_;  // Column-major: feature f at f * rows_.
  std::vector<std::vector<double>> cuts_;
};

/// A CART decision tree supporting regression (variance criterion) and
/// classification (Gini criterion). This is the base learner for the random
/// forest and gradient-boosting ensembles.
///
/// Internals: nodes are stored in a flat array; leaves carry either a mean
/// response (regression) or a class histogram (classification). Splits are
/// found over FeatureBins: per node and feature, per-bin (count, target
/// sum) or class counts, then a left-to-right scan of the bin boundaries.
class DecisionTree {
 public:
  enum class Criterion { kVariance, kGini };

  explicit DecisionTree(TreeOptions options = {}) : options_(options) {}

  /// Fits on rows `sample` of x (duplicates allowed — bootstrap). For Gini,
  /// `y` holds class indices and `num_classes` must be positive. Bins x
  /// with options.max_bins first; ensembles bin once and call the
  /// FeatureBins overload per tree instead.
  Status Fit(const Matrix& x, const std::vector<double>& y,
             const std::vector<size_t>& sample, Criterion criterion,
             int num_classes, Rng* rng);

  /// Fits on rows `sample` of the binned matrix; thresholds are its cuts.
  Status Fit(const FeatureBins& bins, const std::vector<double>& y,
             const std::vector<size_t>& sample, Criterion criterion,
             int num_classes, Rng* rng);

  /// Regression mean (kVariance) or majority class (kGini) for one row.
  double PredictValue(const double* row) const;

  /// Class-probability histogram for one row (kGini trees only).
  const std::vector<double>& PredictDistribution(const double* row) const;

  /// Impurity-gain importance per feature: the gains of the splits on
  /// it, summed over the internal nodes in build order and normalized to
  /// sum to 1 (all zeros if the tree is a single leaf).
  std::vector<double> FeatureImportance(size_t num_features) const;

  size_t num_nodes() const { return nodes_.size(); }
  bool trained() const { return !nodes_.empty(); }

 private:
  struct Node {
    int feature = -1;           // -1 for leaves.
    double threshold = 0.0;     // Go left if x[feature] <= threshold.
    double gain = 0.0;          // The split's impurity gain.
    int left = -1;
    int right = -1;
    double value = 0.0;                 // Regression leaf mean.
    std::vector<double> distribution;   // Classification leaf histogram.
  };

  struct Workspace;

  int BuildNode(const FeatureBins& bins, const std::vector<double>& y,
                std::vector<size_t>& rows, size_t begin, size_t end, int depth,
                Rng* rng, Workspace* ws);
  const Node& Descend(const double* row) const;

  TreeOptions options_;
  Criterion criterion_ = Criterion::kVariance;
  int num_classes_ = 0;
  std::vector<Node> nodes_;  // Pre-order: a node precedes its subtrees.
};

/// The trees' FeatureImportance summed per feature and renormalized to
/// sum to 1: the importance of a forest or a boosted ensemble.
std::vector<double> EnsembleImportance(const std::vector<DecisionTree>& trees,
                                       size_t num_features);

}  // namespace modis

#endif  // MODIS_ML_DECISION_TREE_H_
