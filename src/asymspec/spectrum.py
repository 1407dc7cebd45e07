"""Resolvent fields, spectra, and resolvent transport for matrix families.

The central object is the resolvent norm field: over a square grid of
complex points, the tail statistic of h -> ||(lambda I - S_h)^{-1}||.
Points where that statistic blows up make up the family spectrum estimate;
everything else belongs to the family resolvent set. One rule governs
singular samples: inside the tail window a singular sample makes the point
unresolved (inf, or UnresolvedPoint where a resolvent is needed); outside
it the sample is ignored, since every limit h -> 0 is read from the window.

Tail statistics only depend on the trailing window of the h-grid, so
every tail statistic is computed from the window samples alone: the
resolvent identities and defects invert and take norms there only, and the
series transport, whose partial sums cover the whole grid, takes its norms
there. They still evaluate the family at every grid sample, so an
evaluation error anywhere on the grid raises; the field sweeps evaluate
just the window samples, once, in the calling thread. The points of the region are
independent of one another: a sweep splits them into slices and, from
dimension THREAD_MIN_DIM up, factors the slices on a thread pool sized to
the CPUs available to the process, with the same kernel for every slice,
so the field does not depend on the CPU count.
A full-grid sweep of a single point is still available through
resolvent_at for diagnostics.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy import ndimage

from .brackets import iter_brackets
from .errors import BadParameter, LengthMismatch, UnresolvedPoint
from .families import (
    FamilySpec,
    HGrid,
    TailEstimate,
    family_eval_stack,
    family_pair_stacks,
    tail_limsup,
    window_limsup,
    window_sup,
)
from .linalg import Inverse, inverse_stack, is_singular, solve_inverse_stack, spectral_norms

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
    r, inverses = solve_inverse_stack(lam * np.eye(sf.dim) - family_eval_stack(sf, grid.samples))
    norms = spectral_norms(r).tolist()
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
    Only the candidates of the window samples are read.
    """
    if len(rf) != grid.count:
        raise LengthMismatch(f"expected {grid.count} candidate matrices, got {len(rf)}")
    eye = np.eye(sf.dim, dtype=np.complex128)
    w = grid.tail_window
    r = np.stack([np.full_like(eye, np.nan) if m is None else m for m in rf[-w:]])
    return _defects(lam * eye - family_eval_stack(sf, grid.samples)[-w:], r, grid)


def _defects(a: np.ndarray, r: np.ndarray, grid: HGrid) -> tuple[TailEstimate, TailEstimate]:
    """Tail norms of a_h r_h - I and r_h a_h - I over the window stacks a and r."""
    eye = np.eye(a.shape[-1])
    return tuple(window_limsup(spectral_norms(p - eye), grid) for p in (a @ r, r @ a))


# ---------------------------------------------------------------------------
# field sweeps

# Smallest family dimension whose field sweep runs on the thread pool. At
# dims 2 and 3 a slice's SVDs are too short for the GIL-free LAPACK time to
# outweigh the hand-offs between threads: two threads ran no faster and
# varied far more from one sweep to the next, while dim 4 ran 1.6x faster.
THREAD_MIN_DIM = 4


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def resolvent_norm_field(sf: FamilySpec, region: ComplexRegion, grid: HGrid) -> ResolventField:
    """Sweep the tail resolvent norm max_h 1/sigma_min(lam I - S_h) over the region.

    Each tail-window matrix is evaluated once, in the calling thread. The
    region's points, in y-major order, are cut into slices of
    ceil(resolution / workers) points, one worker thread per available CPU
    from dimension THREAD_MIN_DIM up; below it the calling thread sweeps
    one row per slice. One batched SVD per slice gives sigma_min at every
    (point, window sample) of the slice; a sample that is singular under
    linalg.is_singular makes its point inf. Every point goes through the
    same kernel whatever slice it lands in, so the field is the same for
    any worker count, and the slices in flight at once hold one row's worth
    of shifted matrices.
    """
    window = family_eval_stack(sf, grid.window_samples)
    eye = np.eye(sf.dim)

    def tail_norms(lams: np.ndarray) -> np.ndarray:
        s = np.linalg.svd(lams[:, None, None, None] * eye - window, compute_uv=False)
        sigma_min = s[..., -1]
        norms = np.divide(1.0, sigma_min, out=np.full_like(sigma_min, INF), where=~is_singular(s))
        return norms.max(axis=1)

    n = region.resolution
    lams = (region.xs[None, :] + 1j * region.ys[:, None]).ravel()
    workers = _cpu_count() if sf.dim >= THREAD_MIN_DIM else 1
    step = -(-n // workers)
    slices = [lams[i : i + step] for i in range(0, lams.size, step)]
    if workers == 1:
        values = np.concatenate([tail_norms(chunk) for chunk in slices])
    else:
        with ThreadPoolExecutor(workers) as pool:
            values = np.concatenate(list(pool.map(tail_norms, slices)))
    return ResolventField(region, values.reshape(n, n))


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
    """(lam I - a_h)^{-1} for the stacked family values a, whose last
    grid.tail_window members are the window samples: NaN at singular
    samples, UnresolvedPoint when a window sample is singular."""
    r, singular = inverse_stack(lam * np.eye(a.shape[-1]) - a)
    in_window = singular[-grid.tail_window :]
    if in_window.any():
        h = grid.window_samples[int(np.argmax(in_window))]
        raise UnresolvedPoint(f"resolvent missing at h={h!r} for lam={lam}")
    return r


def resolvent_equation_residual(
    sf: FamilySpec, lam: complex, mu: complex, grid: HGrid
) -> TailEstimate:
    """Tail norm of R(lam) - R(mu) - (mu - lam) R(lam) R(mu) over the window."""
    a = family_eval_stack(sf, grid.samples)[-grid.tail_window :]
    r_lam = _resolvents(a, lam, grid)
    r_mu = _resolvents(a, mu, grid)
    return window_limsup(spectral_norms(r_lam - r_mu - (mu - lam) * (r_lam @ r_mu)), grid)


def resolvent_commutation_residual(
    sf: FamilySpec, lam: complex, grid: HGrid, mu: complex | None = None
) -> TailEstimate:
    """Tail norm of [S_h, R(lam)] (mu=None) or [R(lam), R(mu)] over the window."""
    a = family_eval_stack(sf, grid.samples)[-grid.tail_window :]
    r_lam = _resolvents(a, lam, grid)
    other = a if mu is None else _resolvents(a, mu, grid)
    return window_limsup(spectral_norms(other @ r_lam - r_lam @ other), grid)


# ---------------------------------------------------------------------------
# resolvent transport between bracket-related families

MAX_SERIES_TERMS = 30


@dataclass(frozen=True)
class SeriesTransport:
    """Truncated transport of T's resolvent toward S's at one point.

    matrices holds the partial sums at every grid sample; the defect estimates
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
) -> SeriesTransport:
    """Approximate (lam I - S_h)^{-1} from (lam I - T_h)^{-1} via bracket series.

    Partial sum: Sigma_N = sum_{n=0}^{N} B_n R^{n+1} with B_n the order-n
    bracket of (S_h, T_h) and R = (lam I - T_h)^{-1}. Multiplying across,
    (lam I - S_h) Sigma_N = I - B_{N+1} R^{N+1}, so the defect is exactly the
    tail of the series; when the bracket roots die the defect vanishes.

    Raises UnresolvedPoint when lam is not in T's resolvent set at some
    tail-window sample; a singular sample outside the window gets a NaN
    partial sum. The term and defect norms are taken on the window alone.
    """
    if not (0 <= n_terms <= MAX_SERIES_TERMS):
        raise BadParameter(f"n_terms must lie in [0, {MAX_SERIES_TERMS}]")
    sa, ta = family_pair_stacks(sf, tf, grid.samples)
    w = grid.tail_window
    r = _resolvents(ta, lam, grid)
    term = total = r_pow = r
    term_tails = [window_sup(spectral_norms(term[-w:]))]
    for bracket in islice(iter_brackets(sa, ta), 1, n_terms + 1):
        r_pow = r_pow @ r
        term = bracket @ r_pow
        total = total + term
        term_tails.append(window_sup(spectral_norms(term[-w:])))
    left, right = _defects(lam * np.eye(sf.dim) - sa[-w:], total[-w:], grid)
    return SeriesTransport(
        lambda_=lam,
        n_terms=n_terms,
        matrices=list(total),
        left_defect=left,
        right_defect=right,
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


def field_to_csv(field: ResolventField) -> str:
    """CSV dump, header re,im,value, rows in y-major order matching values."""
    xs = field.region.xs.tolist()
    lines = ["re,im,value"]
    for y, row in zip(field.region.ys.tolist(), field.values.tolist()):
        lines.extend("%.17g,%.17g,%.17g" % (x, y, v) for x, v in zip(xs, row))
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
