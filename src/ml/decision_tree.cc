#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace modis {

namespace {

/// Accumulates segment statistics for either criterion.
struct SegmentStats {
  double count = 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  std::vector<double> class_counts;

  void Init(int num_classes) {
    count = sum = sum_sq = 0.0;
    class_counts.assign(num_classes, 0.0);
  }
  void Add(double y, bool gini) {
    count += 1.0;
    if (gini) {
      class_counts[static_cast<int>(y)] += 1.0;
    } else {
      sum += y;
      sum_sq += y * y;
    }
  }
  /// Count-weighted impurity: SSE for regression, n*(1-Σp²) for Gini.
  double Impurity(bool gini) const {
    if (count <= 0.0) return 0.0;
    if (gini) {
      double sq = 0.0;
      for (double c : class_counts) sq += c * c;
      return count - sq / count;
    }
    return sum_sq - sum * sum / count;
  }
};

/// A threshold between adjacent distinct values u < v; never outside
/// [u, v], and free of the overflow of 0.5 * (u + v).
double Midpoint(double u, double v) { return 0.5 * u + 0.5 * v; }

}  // namespace

FeatureBins::FeatureBins(const Matrix& x, int max_bins) : rows_(x.rows()) {
  const size_t limit = max_bins <= 0 || max_bins > 65536
                           ? size_t{65536}
                           : static_cast<size_t>(max_bins);
  const size_t d = x.cols();
  codes_.resize(d * rows_);
  cuts_.resize(d);
  // (value, row) of the column's non-NaN cells, in value order: cuts come
  // from the values, and codes from one merge of rows against cuts.
  std::vector<std::pair<double, uint32_t>> sorted;
  std::vector<double> distinct;
  sorted.reserve(rows_);
  distinct.reserve(rows_);
  for (size_t f = 0; f < d; ++f) {
    sorted.clear();
    for (size_t r = 0; r < rows_; ++r) {
      const double v = x.At(r, f);
      if (!std::isnan(v)) sorted.emplace_back(v, static_cast<uint32_t>(r));
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    distinct.clear();
    for (const auto& [v, r] : sorted) {
      if (distinct.empty() || v != distinct.back()) distinct.push_back(v);
    }
    std::vector<double>& cuts = cuts_[f];
    auto push = [&cuts](double cut) {
      if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
    };
    if (distinct.size() <= limit) {
      for (size_t i = 1; i < distinct.size(); ++i) {
        push(Midpoint(distinct[i - 1], distinct[i]));
      }
    } else {
      const size_t m = sorted.size();
      for (size_t b = 1; b < limit; ++b) {
        // The cut just below the b-th quantile, between two distinct values.
        const double q = sorted[b * m / limit].first;
        auto it = std::lower_bound(distinct.begin(), distinct.end(), q);
        if (it != distinct.begin()) push(Midpoint(*(it - 1), *it));
      }
    }
    // code = #cuts < x; NaN keeps the last bin.
    uint16_t* codes = codes_.data() + f * rows_;
    std::fill(codes, codes + rows_, static_cast<uint16_t>(cuts.size()));
    size_t code = 0;
    for (const auto& [v, r] : sorted) {
      while (code < cuts.size() && cuts[code] < v) ++code;
      codes[r] = static_cast<uint16_t>(code);
    }
  }
}

/// Per-fit scratch reused by every node: the histograms of the node's
/// candidate features, the running left-hand sums of the scan, and the
/// partition buffer.
struct DecisionTree::Workspace {
  /// One histogram per candidate feature, the i-th starting at hist_at[i].
  /// Bin b of a histogram occupies [b * stride, (b + 1) * stride): the row
  /// count, then the moments — the target sum for regression, one count
  /// per class for Gini.
  std::vector<double> hist;
  std::vector<size_t> hist_at;
  std::vector<const uint16_t*> codes;  // Per candidate feature.
  std::vector<double> totals;          // The node's, laid out as a bin.
  std::vector<double> left;            // Bins scanned so far, as a bin.
  std::vector<size_t> right_rows;
};

Status DecisionTree::Fit(const Matrix& x, const std::vector<double>& y,
                         const std::vector<size_t>& sample,
                         Criterion criterion, int num_classes, Rng* rng) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("DecisionTree::Fit: x/y size mismatch");
  }
  return Fit(FeatureBins(x, options_.max_bins), y, sample, criterion,
             num_classes, rng);
}

Status DecisionTree::Fit(const FeatureBins& bins, const std::vector<double>& y,
                         const std::vector<size_t>& sample,
                         Criterion criterion, int num_classes, Rng* rng) {
  if (bins.rows() != y.size()) {
    return Status::InvalidArgument("DecisionTree::Fit: x/y size mismatch");
  }
  if (sample.empty()) {
    return Status::InvalidArgument("DecisionTree::Fit: empty sample");
  }
  if (criterion == Criterion::kGini && num_classes < 2) {
    return Status::InvalidArgument(
        "DecisionTree::Fit: classification needs >= 2 classes");
  }
  criterion_ = criterion;
  num_classes_ = criterion == Criterion::kGini ? num_classes : 0;
  nodes_.clear();

  std::vector<size_t> rows = sample;
  Workspace ws;
  BuildNode(bins, y, rows, 0, rows.size(), 0, rng, &ws);
  return Status::OK();
}

int DecisionTree::BuildNode(const FeatureBins& bins,
                            const std::vector<double>& y,
                            std::vector<size_t>& rows, size_t begin,
                            size_t end, int depth, Rng* rng, Workspace* ws) {
  const bool gini = criterion_ == Criterion::kGini;
  const size_t n = end - begin;

  SegmentStats total;
  total.Init(num_classes_);
  for (size_t i = begin; i < end; ++i) total.Add(y[rows[i]], gini);
  const double parent_impurity = total.Impurity(gini);

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();

  auto make_leaf = [&]() {
    Node& node = nodes_[node_index];
    if (gini) {
      node.distribution.assign(num_classes_, 0.0);
      for (int k = 0; k < num_classes_; ++k) {
        node.distribution[k] = total.class_counts[k] / total.count;
      }
      // Majority class as the point value.
      node.value = static_cast<double>(
          std::max_element(node.distribution.begin(), node.distribution.end()) -
          node.distribution.begin());
    } else {
      node.value = total.sum / total.count;
    }
    return node_index;
  };

  if (depth >= options_.max_depth || n < 2 * options_.min_samples_leaf ||
      parent_impurity <= 1e-12) {
    return make_leaf();
  }

  // Feature subsample.
  const size_t d = bins.features();
  size_t k = static_cast<size_t>(std::ceil(options_.feature_fraction * d));
  k = std::max<size_t>(1, std::min(k, d));
  std::vector<size_t> features =
      (k == d) ? [&] {
        std::vector<size_t> all(d);
        std::iota(all.begin(), all.end(), 0);
        return all;
      }()
               : rng->SampleWithoutReplacement(d, k);

  // Both criteria's impurity is count minus (Σ moment²) / count, up to
  // terms a split does not change (Σy² for SSE, the row count for Gini),
  // so a split's gain is score(left) + score(right) - score(node) with
  // score = Σ moment² / count: the scan needs only counts and moments.
  const size_t stride = 1 + (gini ? static_cast<size_t>(num_classes_) : 1);
  ws->totals.assign(stride, 0.0);
  ws->totals[0] = total.count;
  if (gini) {
    for (int c = 0; c < num_classes_; ++c) {
      ws->totals[1 + c] = total.class_counts[c];
    }
  } else {
    ws->totals[1] = total.sum;
  }
  const double* totals = ws->totals.data();
  double parent_score = 0.0;
  for (size_t j = 1; j < stride; ++j) parent_score += totals[j] * totals[j];
  parent_score /= totals[0];

  // One pass over the node's rows fills every candidate feature's
  // histogram.
  ws->hist_at.resize(features.size() + 1);
  ws->hist_at[0] = 0;
  for (size_t i = 0; i < features.size(); ++i) {
    ws->hist_at[i + 1] = ws->hist_at[i] + bins.num_bins(features[i]) * stride;
  }
  ws->hist.assign(ws->hist_at.back(), 0.0);
  ws->codes.resize(features.size());
  for (size_t i = 0; i < features.size(); ++i) {
    ws->codes[i] = bins.codes(features[i]);
  }
  for (size_t i = begin; i < end; ++i) {
    const size_t r = rows[i];
    const size_t moment = gini ? 1 + static_cast<size_t>(y[r]) : 1;
    const double value = gini ? 1.0 : y[r];
    double* hist = ws->hist.data();
    for (size_t j = 0; j < features.size(); ++j) {
      double* bin = hist + ws->hist_at[j] + ws->codes[j][r] * stride;
      bin[0] += 1.0;
      bin[moment] += value;
    }
  }

  double best_gain = 1e-10;
  int best_feature = -1;
  size_t best_cut = 0;
  const double min_leaf = static_cast<double>(options_.min_samples_leaf);
  for (size_t fi = 0; fi < features.size(); ++fi) {
    const size_t f = features[fi];
    const size_t num_bins = bins.num_bins(f);
    const double* hist = ws->hist.data() + ws->hist_at[fi];

    // Scan the boundaries between the node's non-empty bins left to
    // right. Every cut between two such bins routes the node's rows the
    // same way; the middle one is kept, the histogram analogue of the
    // midpoint between two adjacent sorted values.
    ws->left.assign(stride, 0.0);
    double* left = ws->left.data();
    size_t last = num_bins;  // Last non-empty bin added to `left`.
    for (size_t b = 0; b < num_bins; ++b) {
      const double* bin = hist + b * stride;
      if (bin[0] == 0.0) continue;
      const double right_count = totals[0] - left[0];
      if (last != num_bins && left[0] >= min_leaf &&
          right_count >= min_leaf) {
        double left_sq = 0.0, right_sq = 0.0;
        for (size_t j = 1; j < stride; ++j) {
          const double r = totals[j] - left[j];
          left_sq += left[j] * left[j];
          right_sq += r * r;
        }
        const double gain =
            left_sq / left[0] + right_sq / right_count - parent_score;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_cut = (last + b - 1) / 2;
        }
      }
      for (size_t j = 0; j < stride; ++j) left[j] += bin[j];
      last = b;
      if (totals[0] - left[0] < min_leaf) break;
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition rows by the chosen split, stably: left rows compact in
  // place, right rows go through the buffer.
  const uint16_t* codes = bins.codes(static_cast<size_t>(best_feature));
  ws->right_rows.clear();
  size_t mid = begin;
  for (size_t i = begin; i < end; ++i) {
    const size_t r = rows[i];
    if (codes[r] <= best_cut) {
      rows[mid++] = r;
    } else {
      ws->right_rows.push_back(r);
    }
  }
  std::copy(ws->right_rows.begin(), ws->right_rows.end(), rows.begin() + mid);
  if (mid == begin || mid == end) return make_leaf();  // Degenerate.

  const int left_child = BuildNode(bins, y, rows, begin, mid, depth + 1, rng,
                                   ws);
  const int right_child = BuildNode(bins, y, rows, mid, end, depth + 1, rng,
                                    ws);
  Node& node = nodes_[node_index];
  node.feature = best_feature;
  node.threshold = bins.cuts(static_cast<size_t>(best_feature))[best_cut];
  node.gain = best_gain;
  node.left = left_child;
  node.right = right_child;
  return node_index;
}

const DecisionTree::Node& DecisionTree::Descend(const double* row) const {
  MODIS_CHECK(!nodes_.empty()) << "DecisionTree not trained";
  int idx = 0;
  for (;;) {
    const Node& node = nodes_[idx];
    if (node.feature < 0) return node;
    idx = row[node.feature] <= node.threshold ? node.left : node.right;
  }
}

double DecisionTree::PredictValue(const double* row) const {
  return Descend(row).value;
}

const std::vector<double>& DecisionTree::PredictDistribution(
    const double* row) const {
  const Node& node = Descend(row);
  MODIS_CHECK(!node.distribution.empty())
      << "PredictDistribution on a regression tree";
  return node.distribution;
}

namespace {

/// Scales `imp` to sum to 1, unless it is all zeros.
std::vector<double> Normalized(std::vector<double> imp) {
  double total = 0.0;
  for (double v : imp) total += v;
  if (total > 0.0) {
    for (double& v : imp) v /= total;
  }
  return imp;
}

}  // namespace

std::vector<double> DecisionTree::FeatureImportance(size_t num_features) const {
  std::vector<double> imp(num_features, 0.0);
  for (const Node& node : nodes_) {
    if (node.feature >= 0 && static_cast<size_t>(node.feature) < num_features) {
      imp[node.feature] += node.gain;
    }
  }
  return Normalized(std::move(imp));
}

std::vector<double> EnsembleImportance(const std::vector<DecisionTree>& trees,
                                       size_t num_features) {
  std::vector<double> imp(num_features, 0.0);
  for (const DecisionTree& tree : trees) {
    const std::vector<double> ti = tree.FeatureImportance(num_features);
    for (size_t i = 0; i < num_features; ++i) imp[i] += ti[i];
  }
  return Normalized(std::move(imp));
}

}  // namespace modis
