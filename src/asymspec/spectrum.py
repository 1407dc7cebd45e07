"""Resolvent fields, spectra, and resolvent transport for matrix families.

The central object is the resolvent norm field: over a square grid of
complex points, the tail statistic of h -> ||(lambda I - S_h)^{-1}||.
Points where that statistic blows up (or where some tail sample is outright
singular) make up the family spectrum estimate; everything else belongs to
the family resolvent set.

Tail statistics only depend on the trailing window of the h-grid, so the
field sweeps evaluate just those samples. A full-grid sweep of a single
point is still available through resolvent_at for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import BadParameter, LengthMismatch, UnresolvedPoint
from .families import (
    FamilySpec,
    HGrid,
    TailEstimate,
    family_eval_array,
    family_eval_stack,
    tail_limsup,
)
from .linalg import (
    Inverse,
    inverse_stack,
    is_singular,
    operator_norm,
    solve_inverse,
    spectral_norms,
)

INF = float("inf")


# ---------------------------------------------------------------------------
# regions and fields


@dataclass(frozen=True)
class ComplexRegion:
    """Axis-aligned square window of the complex plane, sampled on a grid.

    resolution is the per-axis point count; odd so the center is a sample.
    """

    center: complex
    half_width: float
    resolution: int = 101

    def __post_init__(self):
        if not (math.isfinite(self.center.real) and math.isfinite(self.center.imag)):
            raise BadParameter("region center must be finite")
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise BadParameter("region half_width must be finite and positive")
        if self.resolution < 21 or self.resolution % 2 == 0:
            raise BadParameter("region resolution must be odd and at least 21")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.resolution - 1)

    @property
    def xs(self) -> np.ndarray:
        return self.center.real + np.linspace(-self.half_width, self.half_width, self.resolution)

    @property
    def ys(self) -> np.ndarray:
        return self.center.imag + np.linspace(-self.half_width, self.half_width, self.resolution)

    def point(self, ix: int, iy: int) -> complex:
        return complex(self.xs[ix], self.ys[iy])


@dataclass(frozen=True)
class ResolventField:
    """Tail resolvent norms over a region; values[iy, ix] pairs with (xs[ix], ys[iy])."""

    region: ComplexRegion
    values: np.ndarray

    def __post_init__(self):
        expected = (self.region.resolution, self.region.resolution)
        if self.values.shape != expected:
            raise LengthMismatch(f"field shape {self.values.shape} != {expected}")


@dataclass(frozen=True)
class ResolventSweep:
    """Resolvents of one point across the whole h-grid, plus the tail verdict."""

    lambda_: complex
    inverses: list[Inverse | None]
    norms: list[float]
    tail: TailEstimate


def resolvent_at(sf: FamilySpec, lam: complex, grid: HGrid) -> ResolventSweep:
    """Invert (lam I - S_h) at every grid sample. Singular samples become None/inf."""
    eye = np.eye(sf.dim, dtype=np.complex128)
    inverses: list[Inverse | None] = []
    norms: list[float] = []
    for h in grid.samples:
        inv = solve_inverse(lam * eye - family_eval_array(sf, h))
        inverses.append(inv)
        norms.append(operator_norm(inv.matrix) if inv is not None else INF)
    return ResolventSweep(lam, inverses, norms, tail_limsup(norms, grid))


def point_resolved(sweep: ResolventSweep) -> bool:
    """True when the tail stays finite, i.e. the point sits in the resolvent set."""
    return math.isfinite(sweep.tail.value)


def resolvent_defect(
    sf: FamilySpec, rf: list[np.ndarray | None], lam: complex, grid: HGrid
) -> tuple[TailEstimate, TailEstimate]:
    """Tail norms of (lam I - S_h) R_h - I and R_h (lam I - S_h) - I.

    rf supplies one candidate resolvent per grid sample (None marks a sample
    with no candidate; it scores inf and poisons the tail if inside the window).
    """
    if len(rf) != grid.count:
        raise LengthMismatch(f"expected {grid.count} candidate matrices, got {len(rf)}")
    eye = np.eye(sf.dim, dtype=np.complex128)
    left: list[float] = []
    right: list[float] = []
    for h, r in zip(grid.samples, rf):
        if r is None:
            left.append(INF)
            right.append(INF)
            continue
        a = lam * eye - family_eval_array(sf, h)
        left.append(operator_norm(a @ r - eye))
        right.append(operator_norm(r @ a - eye))
    return tail_limsup(left, grid), tail_limsup(right, grid)


# ---------------------------------------------------------------------------
# field sweeps

def resolvent_norm_field(sf: FamilySpec, region: ComplexRegion, grid: HGrid) -> ResolventField:
    """Sweep the tail resolvent norm max_h 1/sigma_min(lam I - S_h) over the region.

    Each tail-window matrix is evaluated once. One batched SVD per region row
    gives sigma_min at every (point, window sample) of the row; a sample that
    is singular under linalg.is_singular makes its point inf. Rows are batched
    one at a time so memory stays at one row of shifted matrices.
    """
    window = family_eval_stack(sf, grid.window_samples)
    eye = np.eye(sf.dim)
    values = np.empty((region.resolution, region.resolution), dtype=np.float64)
    for iy, y in enumerate(region.ys):
        lams = region.xs + 1j * y
        s = np.linalg.svd(lams[:, None, None, None] * eye - window, compute_uv=False)
        sigma_min = s[..., -1]
        norms = np.divide(1.0, sigma_min, out=np.full_like(sigma_min, INF), where=~is_singular(s))
        values[iy] = norms.max(axis=1)
    return ResolventField(region, values)


# ---------------------------------------------------------------------------
# spectrum estimation


@dataclass(frozen=True)
class Cluster:
    """One connected blob of flagged grid points."""

    centroid: complex
    radius: float
    cell_count: int


@dataclass(frozen=True)
class SpectrumEstimate:
    region: ComplexRegion
    epsilon: float
    clusters: tuple[Cluster, ...]
    flagged: np.ndarray  # boolean mask, same layout as the field values


def default_epsilon(upper: float) -> float:
    return 1e-3 * (1.0 + upper)


def default_region(upper: float) -> ComplexRegion:
    half = 1.25 * max(upper, 0.8)
    return ComplexRegion(0 + 0j, half, 101)


def spectrum_estimate(field: ResolventField, epsilon: float) -> SpectrumEstimate:
    """Flag grid points whose tail resolvent norm reaches 1/epsilon; cluster them.

    Clustering is 8-connected: diagonal neighbors belong to the same blob.
    Clusters come back sorted by centroid (real part, then imaginary part).
    """
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise BadParameter("epsilon must be finite and positive")
    threshold = 1.0 / epsilon
    flagged = field.values >= threshold
    labels, n_blobs = ndimage.label(flagged, structure=np.ones((3, 3), dtype=int))
    xs = field.region.xs
    ys = field.region.ys
    clusters = []
    for blob in range(1, n_blobs + 1):
        iys, ixs = np.nonzero(labels == blob)
        pts = xs[ixs] + 1j * ys[iys]
        centroid = complex(pts.mean())
        radius = float(np.abs(pts - centroid).max())
        clusters.append(Cluster(centroid, radius, int(pts.size)))
    clusters.sort(key=lambda c: (c.centroid.real, c.centroid.imag))
    return SpectrumEstimate(field.region, epsilon, tuple(clusters), flagged)


def cluster_near(estimate: SpectrumEstimate, point: complex, slack: float = 0.0) -> Cluster | None:
    """Cluster whose centroid lies within radius + grid spacing + slack of the point."""
    spacing = estimate.region.spacing
    best = None
    best_d = INF
    for c in estimate.clusters:
        d = abs(c.centroid - point)
        if d <= c.radius + spacing + slack + 1e-9 and d < best_d:
            best, best_d = c, d
    return best


def clusters_match(a: SpectrumEstimate, b: SpectrumEstimate, slack: float = 0.0) -> bool:
    """Same cluster count and pairwise-close centroids, up to one grid spacing."""
    if len(a.clusters) != len(b.clusters):
        return False
    spacing = max(a.region.spacing, b.region.spacing)
    return all(
        abs(ca.centroid - cb.centroid) <= spacing + slack + 1e-9
        for ca, cb in zip(a.clusters, b.clusters)
    )


# ---------------------------------------------------------------------------
# resolvent identities


def _resolvents(a: np.ndarray, lam: complex, grid: HGrid) -> np.ndarray:
    """(lam I - a_h)^{-1} for the stacked family values a; UnresolvedPoint if one is singular."""
    r, singular = inverse_stack(lam * np.eye(a.shape[-1]) - a)
    if singular.any():
        h = grid.samples[int(np.argmax(singular))]
        raise UnresolvedPoint(f"resolvent missing at h={h!r} for lam={lam}")
    return r


def resolvent_equation_residual(
    sf: FamilySpec, lam: complex, mu: complex, grid: HGrid
) -> TailEstimate:
    """Tail norm of R(lam) - R(mu) - (mu - lam) R(lam) R(mu) over the window."""
    a = family_eval_stack(sf, grid.samples)
    r_lam = _resolvents(a, lam, grid)
    r_mu = _resolvents(a, mu, grid)
    return tail_limsup(spectral_norms(r_lam - r_mu - (mu - lam) * (r_lam @ r_mu)), grid)


def resolvent_commutation_residual(
    sf: FamilySpec, lam: complex, grid: HGrid, mu: complex | None = None
) -> TailEstimate:
    """Tail norm of [S_h, R(lam)] (mu=None) or [R(lam), R(mu)]."""
    a = family_eval_stack(sf, grid.samples)
    r_lam = _resolvents(a, lam, grid)
    other = a if mu is None else _resolvents(a, mu, grid)
    return tail_limsup(spectral_norms(other @ r_lam - r_lam @ other), grid)


# ---------------------------------------------------------------------------
# resolvent transport between bracket-related families

MAX_SERIES_TERMS = 30


@dataclass(frozen=True)
class SeriesTransport:
    """Truncated transport of T's resolvent toward S's at one point.

    matrices holds the partial sums per grid sample; the defect estimates
    measure (lam I - S_h) Sigma - I and Sigma (lam I - S_h) - I in the tail.
    term_tails holds the tail norm of every summand B_n R^{n+1}, n = 0..N;
    the last of them, last_term_tail, is a truncation gauge.
    """

    lambda_: complex
    n_terms: int
    matrices: list[np.ndarray]
    left_defect: TailEstimate
    right_defect: TailEstimate
    term_tails: tuple[float, ...]

    @property
    def last_term_tail(self) -> float:
        return self.term_tails[-1]


def series_resolvent(
    sf: FamilySpec,
    tf: FamilySpec,
    lam: complex,
    grid: HGrid,
    n_terms: int,
    tol: float = 1e-9,
) -> SeriesTransport:
    """Approximate (lam I - S_h)^{-1} from (lam I - T_h)^{-1} via bracket series.

    Partial sum: Sigma_N = sum_{n=0}^{N} B_n R^{n+1} with B_n the order-n
    bracket of (S_h, T_h) and R = (lam I - T_h)^{-1}. Multiplying across,
    (lam I - S_h) Sigma_N = I - B_{N+1} R^{N+1}, so the defect is exactly the
    tail of the series; when the bracket roots die the defect vanishes.

    tol is recorded on the defect verdicts' behalf by callers; this routine
    just builds the evidence. Raises UnresolvedPoint when lam is not in T's
    resolvent set at some tail-window sample; a singular sample outside the
    window gets a NaN partial sum and inf norms.
    """
    if sf.dim != tf.dim:
        raise BadParameter(f"family dimensions differ: {sf.dim} vs {tf.dim}")
    if not (0 <= n_terms <= MAX_SERIES_TERMS):
        raise BadParameter(f"n_terms must lie in [0, {MAX_SERIES_TERMS}]")
    eye = np.eye(sf.dim, dtype=np.complex128)
    sa = family_eval_stack(sf, grid.samples)
    ta = family_eval_stack(tf, grid.samples)
    r, singular = inverse_stack(lam * eye - ta)
    if singular[-grid.tail_window :].any():
        h = grid.window_samples[int(np.argmax(singular[-grid.tail_window :]))]
        raise UnresolvedPoint(f"lam={lam} not resolved for the source family at h={h!r}")

    bracket = eye
    term = total = r_pow = r
    term_tails = [tail_limsup(spectral_norms(term), grid).value]
    for _ in range(n_terms):
        bracket = sa @ bracket - bracket @ ta
        r_pow = r_pow @ r
        term = bracket @ r_pow
        total = total + term
        term_tails.append(tail_limsup(spectral_norms(term), grid).value)
    a = lam * eye - sa
    return SeriesTransport(
        lambda_=lam,
        n_terms=n_terms,
        matrices=list(total),
        left_defect=tail_limsup(spectral_norms(a @ total - eye), grid),
        right_defect=tail_limsup(spectral_norms(total @ a - eye), grid),
        term_tails=tuple(term_tails),
    )


# ---------------------------------------------------------------------------
# norm bounds for the asymptotic quotient


@dataclass(frozen=True)
class NormBounds:
    lower: float
    upper: float


def quotient_norm_bounds(sf: FamilySpec, grid: HGrid) -> NormBounds:
    """Bounds that sandwich the family norm: tail limsup below, grid sup above."""
    values = spectral_norms(family_eval_stack(sf, grid.samples))
    tail = tail_limsup(values, grid)
    return NormBounds(lower=tail.value, upper=float(values.max()))


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return "%.17g" % x


def field_to_csv(field: ResolventField) -> str:
    """CSV dump, header re,im,value, rows in y-major order matching values."""
    xs = field.region.xs
    ys = field.region.ys
    lines = ["re,im,value"]
    for iy in range(field.region.resolution):
        for ix in range(field.region.resolution):
            lines.append(
                f"{_fmt(float(xs[ix]))},{_fmt(float(ys[iy]))},{_fmt(float(field.values[iy, ix]))}"
            )
    return "\n".join(lines) + "\n"


def spectrum_to_dict(estimate: SpectrumEstimate) -> dict:
    return {
        "epsilon": estimate.epsilon,
        "region": {
            "center_re": estimate.region.center.real,
            "center_im": estimate.region.center.imag,
            "half_width": estimate.region.half_width,
            "resolution": estimate.region.resolution,
        },
        "clusters": [
            {
                "centroid_re": c.centroid.real,
                "centroid_im": c.centroid.imag,
                "radius": c.radius,
                "cell_count": c.cell_count,
            }
            for c in estimate.clusters
        ],
    }


__all__ = [
    "ComplexRegion",
    "ResolventField",
    "ResolventSweep",
    "Cluster",
    "SpectrumEstimate",
    "SeriesTransport",
    "NormBounds",
    "resolvent_at",
    "point_resolved",
    "resolvent_defect",
    "resolvent_norm_field",
    "default_epsilon",
    "default_region",
    "spectrum_estimate",
    "cluster_near",
    "clusters_match",
    "resolvent_equation_residual",
    "resolvent_commutation_residual",
    "series_resolvent",
    "quotient_norm_bounds",
    "field_to_csv",
    "spectrum_to_dict",
    "MAX_SERIES_TERMS",
]
