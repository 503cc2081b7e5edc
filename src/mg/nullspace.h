#pragma once
// Adaptive null-space generation (paper section 3.4, steps 1-2): iterate the
// homogeneous system M x = 0 from a random start with a smoother; what
// survives k iterations is rich in the slow-to-converge (near-null) modes of
// M.  These candidate vectors become the prolongator columns.

#include <cstdint>
#include <vector>

#include "fields/colorspinor.h"
#include "solvers/linear_operator.h"

namespace qmg {

enum class NullSpaceMethod {
  Relax,           // MR relaxation on M x = 0 (paper section 3.4 steps 1-2)
  InverseIterate,  // loose BiCGStab solve of M x = eta (inverse iteration);
                   // stronger low-mode enrichment near criticality
};

struct NullSpaceParams {
  int nvec = 24;        // candidate vectors (24 or 32 in the paper's runs)
  int iters = 100;      // relaxation iterations on M x = 0 per vector
  double omega = 0.85;  // MR relaxation factor
  std::uint64_t seed = 7;
  NullSpaceMethod method = NullSpaceMethod::Relax;
  double inverse_tol = 5e-3;  // inner tolerance for InverseIterate
};

/// Generate `params.nvec` near-null vectors of `op` by MR relaxation on the
/// homogeneous system.  Vectors are normalized but not block-orthonormalized
/// (the Transfer does that).  Relax costs `params.iters` + 1 operator
/// applies per vector: one for the starting residual, one per sweep.
template <typename T>
std::vector<ColorSpinorField<T>> generate_null_vectors(
    const LinearOperator<T>& op, const NullSpaceParams& params);

/// Refresh existing candidate vectors in place: `iters` MR relaxation
/// sweeps on M x = 0 starting from each CURRENT vector instead of a random
/// start.  This is the reuse half of the hierarchy lifecycle — on a gauge
/// configuration correlated with the one the vectors were generated on,
/// they are already near-null up to the configuration drift, so a handful
/// of sweeps re-adapts them at a fraction of the from-scratch cost.
/// Vectors are re-normalized.  Costs `iters` + 1 applies per vector.
template <typename T>
void relax_null_vectors(const LinearOperator<T>& op,
                        std::vector<ColorSpinorField<T>>& vecs, int iters,
                        double omega);

}  // namespace qmg
