#ifndef MODIS_MOO_CORRELATION_H_
#define MODIS_MOO_CORRELATION_H_

#include <vector>

#include "moo/pareto.h"

namespace modis {

/// Spearman rank correlation coefficient of two equal-length samples.
/// Returns 0 when either sample is constant or shorter than 2.
double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b);

/// The correlation graph G_C of §5.3: nodes are measures, an edge (p_i,p_j)
/// exists when |spearman(p_i, p_j)| >= theta over the currently valuated
/// tests. The engine does not build it: BiMODis's Lemma 4 pruning derives
/// its parameterized ranges from each measure's Spearman correlation with
/// the dataset size (SpearmanCorrelation above), not from G_C.
class CorrelationGraph {
 public:
  CorrelationGraph(size_t num_measures, double theta)
      : num_measures_(num_measures), theta_(theta) {}

  /// Recomputes all pairwise correlations from the valuated performance
  /// vectors in `tests` (each of length num_measures).
  void Update(const std::vector<PerfVector>& tests);

  /// Signed Spearman correlation between measures i and j (0 before any
  /// Update or with insufficient data).
  double Corr(size_t i, size_t j) const;

  /// True if |Corr(i,j)| >= theta.
  bool StronglyCorrelated(size_t i, size_t j) const;

  /// Strongly correlated partners of measure i (excluding i itself),
  /// strongest first.
  std::vector<size_t> PartnersOf(size_t i) const;

  size_t num_measures() const { return num_measures_; }
  double theta() const { return theta_; }

 private:
  size_t num_measures_;
  double theta_;
  std::vector<double> corr_;  // Row-major num_measures x num_measures.
};

}  // namespace modis

#endif  // MODIS_MOO_CORRELATION_H_
