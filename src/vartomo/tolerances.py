"""Named numerical tolerances and solver defaults shared across modules.

The validation thresholds below are tuned here.  Some local checks in
:mod:`vartomo.channels` and :mod:`vartomo.probes` (trace bounds, identity
and rank checks) still use a literal ``1e-10``.
"""

# Reject inputs whose anti-Hermitian part exceeds this in max-norm.
HERMITIAN_REJECT = 1e-8

# PSD checks: eigenvalues above this floor are clamped to zero ...
PSD_CLAMP = -1e-10
# ... below this the matrix is rejected as not PSD.
PSD_REJECT = -1e-8

# Operator-basis completeness and orthogonality.
BASIS_COMPLETENESS = 1e-10
BASIS_ORTHOGONALITY = 1e-10

# Effect sets: resolution of identity.
EFFECT_RESOLUTION = 1e-9

# A simulated Born probability outside [-this, 1 + this] is a bug.
PROBABILITY_RANGE = 1e-10

# Trace-preservation defect threshold.
TRACE_PRESERVING = 1e-8

# Relative eigenvalue cutoff when counting the rank of a process matrix.
CHI_RANK_REL = 1e-7

# Default solver tolerance (normalized primal/dual residuals) ...
SOLVER_TOL = 1e-7
# ... and iteration cap.
SOLVER_MAX_ITER = 200_000
