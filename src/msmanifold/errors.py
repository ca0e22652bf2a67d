"""Exception types shared across the package.

Every error raised on a violated contract derives from MsManifoldError so
callers (and the CLI) can distinguish our diagnostics from genuine bugs.
"""


class MsManifoldError(Exception):
    pass


class ConfigError(MsManifoldError):
    """Problem/run configuration failed validation."""


# -- problem construction ---------------------------------------------------

class OrderingViolation(ConfigError):
    """Exponents do not satisfy beta < zeta < gamma < alpha."""


class SpectralGapViolation(ConfigError):
    """Some eigenvalue falls strictly between beta and alpha."""


class NonzeroAtOrigin(ConfigError):
    """Nonlinearity or noise does not vanish at the origin."""


class DegenerateGap(MsManifoldError):
    """Gap arithmetic undefined: alpha <= gamma."""


class StableBackwardTime(MsManifoldError):
    """Semigroup applied at t < 0 on a block containing stable modes."""


# -- resolvent machinery ----------------------------------------------------

class NonpositiveLambda(MsManifoldError):
    pass


class LambdaInSpectrum(MsManifoldError):
    pass


class LadderNotConverged(MsManifoldError):
    """Successive lambda-ladder extrapolants differ above tolerance."""


class KappaBelowVartheta(MsManifoldError):
    """c_kappa requires kappa > vartheta."""


# -- stochastic integration -------------------------------------------------

class GridMismatch(MsManifoldError):
    """Grids, ensembles or anchors are not aligned to the same dt lattice."""


class NonfiniteState(MsManifoldError):
    """State overflowed (|u| > cap) or went NaN; reports step and sample."""

    def __init__(self, msg, step=None, sample=None):
        super().__init__(msg)
        self.step = step
        self.sample = sample


# -- regression -------------------------------------------------------------

class IllConditionedDesign(MsManifoldError):
    """Regression design condition number above threshold; reports the
    node (None for a single regression), the condition number and the
    limit."""

    def __init__(self, msg, node=None, cond=None, limit=None):
        super().__init__(msg)
        self.node = node
        self.cond = cond
        self.limit = limit


class Underdetermined(MsManifoldError):
    """Fewer than 3x basis-size samples."""


# -- fixed-point solvers ----------------------------------------------------

class GapViolation(MsManifoldError):
    """Solver invoked although the relevant gap condition fails."""


class TruncationTooShort(MsManifoldError):
    """Weighted-norm tail estimate for the truncated window exceeds budget."""


class MaxIterExceeded(MsManifoldError):
    """Fixed-point iteration did not reach tolerance; carries the last
    distance (None when no iteration finished), the tolerance it missed and
    the iteration cap, and, from the graph solvers, the trace and the side."""

    def __init__(self, msg, trace=None, side=None, distance=None, tol=None,
                 max_iter=None):
        super().__init__(msg)
        self.trace = trace
        self.side = side
        self.distance = distance
        self.tol = tol
        self.max_iter = max_iter


class ConsistencyFailure(MsManifoldError):
    """The residual map moves the graph value at the anchor node by more
    than 2*tol; reports that gap and its limit."""

    def __init__(self, msg, gap=None, limit=None):
        super().__init__(msg)
        self.gap = gap
        self.limit = limit


# -- oracles ----------------------------------------------------------------

class NoSeparation(MsManifoldError):
    """Coupled unstable/stable spectra overlap; Sylvester solve ill-posed."""
