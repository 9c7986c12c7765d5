"""Exception types raised by the library."""


class QPElasticError(Exception):
    """Base class for all library errors."""


class InvalidMedium(QPElasticError):
    """Medium parameters violate mu > 0, lambda + mu > 0, rho > 0 or omega > 0."""


class WoodAnomaly(QPElasticError):
    """Lattice mode ``m`` sits too close to the ``which`` cut-off (alpha_l^2 = k_p^2 or k_s^2).

    The spectral formulas divide by the vertical wavenumbers, so evaluation
    within ``medium.TOL_WOOD_REL * k_s^2`` is refused rather than regularized.
    """

    def __init__(self, alpha_l, which, margin, m=None):
        self.alpha_l = alpha_l
        self.which = which
        self.margin = margin
        self.m = m
        super().__init__(
            f"mode m={m} (|alpha_l|={alpha_l!r}) within TOL_WOOD_REL*k_s**2 = {margin:.3e} "
            f"of the {which} cut-off |alpha_l|^2 = k_{which}^2"
        )


class DomainError(QPElasticError):
    """Argument outside the function's domain (e.g. Hankel/Bessel-K at x <= 0)."""


class TableUnresolved(DomainError):
    """A kernel table's Chebyshev coefficients did not decay to its tolerance."""


class CoincidentPoints(QPElasticError):
    """Source and evaluation point coincide."""


class NearSourceLine(QPElasticError):
    """Gap to the source line below the fixed ``GAP_MIN`` of ``green2d`` (1e-3)
    or ``green3d_qp`` (1e-2), where the series needs too many modes."""


class NearSourcePlane(QPElasticError):
    """|x3 - y3| below the fixed ``green3d_biqp.GAP_MIN`` (1e-2) of the biperiodic series."""


class DegenerateModeBasis(QPElasticError):
    """Per-mode 2x2 extraction system is (near) singular."""


class AliasedGrid(QPElasticError):
    """Sampling grid too coarse for the requested number of modes."""


class TooCloseToBoundary(QPElasticError):
    """Field evaluation point too close to the grating for the quadrature."""


class ResonanceSuspected(QPElasticError):
    """Single-layer system ill-conditioned (spurious interior resonance)."""

    def __init__(self, cond, limit, N, omega):
        self.cond, self.limit, self.N, self.omega = cond, limit, N, omega
        super().__init__(f"condition estimate {cond:.3e} exceeds {limit:g} at N={N}, omega={omega}")


class GridMismatch(QPElasticError):
    """Two datasets sampled on different grids."""


class ConfigError(QPElasticError, ValueError):
    """Invalid run configuration (a ValueError too); carries the field path and the reason."""

    def __init__(self, field, message):
        self.field = field
        self.reason = message
        super().__init__(f"config field '{field}': {message}")
