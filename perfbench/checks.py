"""Checks of asymspec outputs against numpy/scipy, never against saved output.

Every check takes plain data (matrices the benchmark built itself, and the
program's output as text or numbers) and returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

# A sampled field value must match max over the window of 1/sigma_min to this.
FIELD_RTOL = 1e-6
# Above this condition number the program's inverse loses the digits that
# FIELD_RTOL asks for; there the value must only be as large as half of it.
FIELD_COND_LIMIT = 1e8
CALCULUS_RTOL = 1e-9
IDENTITY_RTOL = 1e-9
ROOT_RTOL = 1e-9
SPECTRAL_RADIUS_SLACK = 0.1


# ---------------------------------------------------------------------------
# spectrum requests


def parse_spectrum_json(text: str) -> tuple[float, dict, list[tuple[complex, float]]]:
    payload = json.loads(text)
    clusters = [
        (complex(c["centroid_re"], c["centroid_im"]), float(c["radius"]))
        for c in payload["clusters"]
    ]
    return float(payload["epsilon"]), payload["region"], clusters


def parse_field_csv(text: str, resolution: int) -> np.ndarray:
    """Field values from the CSV, shaped [iy, ix] like the program's field."""
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "re,im,value" or len(lines) != 1 + resolution * resolution:
        raise ValueError(f"field CSV has {len(lines) - 1} rows, want {resolution ** 2}")
    values = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
    return values.reshape(resolution, resolution)


def grid_axes(center: complex, half_width: float, resolution: int):
    xs = center.real + np.linspace(-half_width, half_width, resolution)
    ys = center.imag + np.linspace(-half_width, half_width, resolution)
    return xs, ys


def tail_resolvent_norm(window: list[np.ndarray], lam: complex) -> tuple[float, float]:
    """max over the window of 1/sigma_min(lam I - A), and the worst condition number."""
    worst = 0.0
    cond = 0.0
    for a in window:
        s = np.linalg.svd(lam * np.eye(a.shape[0]) - a, compute_uv=False)
        if s[-1] == 0.0:
            return math.inf, math.inf
        worst = max(worst, 1.0 / s[-1])
        cond = max(cond, s[0] / s[-1])
    return worst, cond


def is_normal(a: np.ndarray) -> bool:
    scale = max(float(np.abs(a).max()) ** 2, 1e-300)
    return float(np.abs(a @ a.conj().T - a.conj().T @ a).max()) <= 1e-12 * scale


def check_spectrum(
    window: list[np.ndarray],
    center: complex,
    half_width: float,
    resolution: int,
    epsilon: float,
    samples: list[tuple[int, int]],
    json_text: str,
    csv_text: str,
    reference: dict | None = None,
) -> list[str]:
    """Coverage, no stray clusters (normal families), and sampled field values.

    ``window`` holds the family's tail-window matrices, built without the
    program. ``reference`` memoizes what depends only on the inputs, so a
    request list reused pass after pass computes it once.
    """
    problems: list[str] = []
    ref = reference if reference is not None else {}
    spacing = 2.0 * half_width / (resolution - 1)
    xs, ys = grid_axes(center, half_width, resolution)
    try:
        eps_out, region, clusters = parse_spectrum_json(json_text)
        values = parse_field_csv(csv_text, resolution)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
    if eps_out != epsilon or region["resolution"] != resolution:
        problems.append(f"echoed epsilon/resolution {eps_out}/{region['resolution']} differ")

    if "eigs" not in ref:
        ref["eigs"] = np.concatenate([np.linalg.eigvals(a) for a in window])
        ref["normal"] = all(is_normal(a) for a in window)
    eigs = ref["eigs"]
    threshold = 1.0 / epsilon

    # Coverage: sigma_min is 1-Lipschitz, so the grid point nearest an
    # eigenvalue has sigma_min <= spacing/sqrt(2) <= epsilon there.
    lo_re, lo_im = xs[0], ys[0]
    for mu in eigs:
        if not (xs[0] <= mu.real <= xs[-1] and ys[0] <= mu.imag <= ys[-1]):
            continue
        ix = int(round((mu.real - lo_re) / spacing))
        iy = int(round((mu.imag - lo_im) / spacing))
        if not values[iy, ix] >= threshold:
            problems.append(f"eigenvalue {mu:.6g}: nearest point value {values[iy, ix]:.6g} < 1/eps")
        if not any(abs(mu - c) <= r + spacing + 1e-9 for c, r in clusters):
            problems.append(f"eigenvalue {mu:.6g} lies in no cluster")

    # No stray clusters: for normal matrices sigma_min(lam I - A) = dist(lam, spectrum).
    if ref["normal"]:
        for c, _ in clusters:
            if np.abs(eigs - c).min() > epsilon + spacing + 1e-9:
                problems.append(f"cluster at {c:.6g} is far from every eigenvalue")

    if "samples" not in ref:
        ref["samples"] = [
            tail_resolvent_norm(window, complex(xs[ix], ys[iy])) for iy, ix in samples
        ]
    for (iy, ix), (want, cond) in zip(samples, ref["samples"]):
        got = values[iy, ix]
        if cond <= FIELD_COND_LIMIT:
            ok = abs(got - want) <= FIELD_RTOL * want
        else:
            ok = got >= 0.5 * want
        if not ok:
            problems.append(f"field[{iy},{ix}] = {got!r}, reference {want!r} (cond {cond:.3g})")
    return problems


# ---------------------------------------------------------------------------
# algebra requests


def check_verdict(expected: str, result: str) -> list[str]:
    return [] if result == expected else [f"verdict {result}, expected {expected}"]


def check_roots_equal(roots: list[list[float]], value: float) -> list[str]:
    """Bracket roots of T + cI against T are exactly |c| at every order."""
    for seq in roots:
        for n, r in enumerate(seq, start=1):
            if not abs(r - value) <= ROOT_RTOL * value:
                return [f"order-{n} root {r!r} differs from |c| = {value!r}"]
    return []


def check_final_roots(roots: list[float], rho: float) -> list[str]:
    last = roots[-4:]
    if all(abs(r - rho) <= SPECTRAL_RADIUS_SLACK * rho for r in last):
        return []
    return [f"final roots {last} not within 10% of spectral radius {rho!r}"]


def check_matrices(got: list[np.ndarray], want: list[np.ndarray], rtol: float, what: str) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} matrices, expected {len(want)}"]
    for k, (g, w) in enumerate(zip(got, want)):
        err = float(np.abs(np.asarray(g) - w).max())
        scale = float(np.abs(w).max())
        if not err <= rtol * scale:
            return [f"{what}[{k}]: max error {err:.3g} exceeds {rtol:g} x {scale:.3g}"]
    return []


def check_residual(value: float, scale: float, what: str) -> list[str]:
    if value <= IDENTITY_RTOL * scale:
        return []
    return [f"{what} residual {value!r} exceeds {IDENTITY_RTOL:g} x {scale:.3g}"]
