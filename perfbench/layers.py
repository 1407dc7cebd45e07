"""Per-layer metrics of a traced run, and the probes that reach inner layers.

A traced run of one workload holds spans from three sources:

- ``own``: the workload's traced passes;
- ``other``: one traced pass over each other workload's request list (same
  seed), which supplies the metrics of layers this workload never calls;
- ``probe``: direct calls into ``families`` and ``linalg``, which the
  workloads reach only through other layers, and into ``brackets``, which
  the classifiers call internally.

Each metric takes its spans from the first of these sources that has any.
"""

from __future__ import annotations

import numpy as np

import asymspec as asp
from asymspec.families import family_eval_array

import workloads

FIELD = ("spectrum.resolvent_norm_field",)
SERIALIZE = ("spectrum.spectrum_to_dict", "cli.canonical_json", "spectrum.field_to_csv")
SOURCES = ("own", "other", "probe")

# name, unit, span names, attribute filter, reduction, scale. Reductions:
#   "pass"      summed self time per pass
#   "call"      self time per call (a probe span may batch ``calls`` calls)
#   "eval"      summed self time per resolvent evaluation (points x window)
#   ("per", n)  summed self time per span named n (one per request)
#   ("count", a) attribute a summed per pass: work done, from the inputs
TABLE = [
    ("spectrum.field_s", "s", FIELD, {}, "pass", 1.0),
    *[(f"spectrum.eval_us.d{d}", "us", FIELD, {"dim": d}, "eval", 1e6) for d in (2, 3, 16, 32)],
    ("spectrum.cluster_ms", "ms", ("spectrum.spectrum_estimate",), {}, "call", 1e3),
    ("cli.serialize_ms", "ms", SERIALIZE, {}, ("per", "spectrum.field_to_csv"), 1e3),
    ("cli.load_ms", "ms", ("families.family_from_dict",), {}, "call", 1e3),
    *[
        (f"families.eval_us.{k}", "us", ("families.family_eval_array",), {"kind": k}, "call", 1e6)
        for k in ("diag_expr", "sum", "jordan")
    ],
    *[(f"linalg.inverse_us.d{d}", "us", ("linalg.solve_inverse",), {"dim": d}, "call", 1e6) for d in (2, 8, 16, 32)],
    *[(f"linalg.norm_us.d{d}", "us", ("linalg.operator_norm",), {"dim": d}, "call", 1e6) for d in (2, 8, 16, 32)],
    ("brackets.sequence_ms", "ms", ("brackets.bracket_sequence",), {}, "call", 1e3),
    ("brackets.power_sequence_ms", "ms", ("brackets.power_norm_sequence",), {}, "call", 1e3),
    ("classify.equiv_ms", "ms", ("classify.asymptotic_equiv",), {}, "call", 1e3),
    ("classify.commuting_ms", "ms", ("classify.asymptotic_commuting",), {}, "call", 1e3),
    ("classify.qequiv_ms", "ms", ("classify.quasinilpotent_equiv",), {}, "call", 1e3),
    ("classify.qnil_ms", "ms", ("classify.is_asymptotic_quasinilpotent",), {}, "call", 1e3),
    ("funcalc.contour_ms", "ms", ("funcalc.contour_funcalc",), {}, "call", 1e3),
    (
        "funcalc.image_eval_ms",
        "ms",
        ("funcalc.family_funcalc", "families.family_eval"),
        {},
        ("per", "families.family_eval"),
        1e3,
    ),
    ("spectrum.series_ms", "ms", ("spectrum.series_resolvent",), {}, "call", 1e3),
    (
        "spectrum.identity_ms",
        "ms",
        ("spectrum.resolvent_equation_residual", "spectrum.resolvent_commutation_residual"),
        {},
        ("per", "spectrum.resolvent_equation_residual"),
        1e3,
    ),
    ("spectrum.evals", "count", FIELD, {}, ("count", "evals"), 1.0),
    (
        "funcalc.nodes",
        "count",
        ("funcalc.contour_funcalc", "families.family_eval"),
        {},
        ("count", "nodes"),
        1.0,
    ),
    (
        "brackets.orders",
        "count",
        ("classify.quasinilpotent_equiv", "classify.is_asymptotic_quasinilpotent"),
        {},
        ("count", "orders"),
        1.0,
    ),
]
OVERHEAD = ("trace.overhead_pct", "%")
NAMES = [(row[0], row[1]) for row in TABLE] + [OVERHEAD]


def _matches(rec: dict, names, attrs: dict) -> bool:
    return rec["name"] in names and all(rec["attrs"].get(k) == v for k, v in attrs.items())


def per_layer(records: list[dict], own_passes: int) -> dict[str, tuple[float, str]]:
    """The table's metrics from span records (``Tracer.to_records``)."""
    out = {}
    for name, unit, names, attrs, how, scale in TABLE:
        for source in SOURCES:
            spans = [r for r in records if r["source"] == source and _matches(r, names, attrs)]
            if spans:
                break
        else:
            raise ValueError(f"no spans for per-layer metric {name}")
        passes = own_passes if source == "own" else 1
        total = sum(r["self"] for r in spans)
        if how == "pass":
            value = total / passes
        elif how == "call":
            value = total / sum(r["attrs"].get("calls", 1) for r in spans)
        elif how == "eval":
            value = total / sum(r["attrs"]["evals"] for r in spans)
        elif how[0] == "per":
            value = total / sum(1 for r in spans if r["name"] == how[1])
        else:
            value = sum(r["attrs"].get(how[1], 0) for r in spans) / passes
        out[name] = (value * scale, unit)
    return out


# ---------------------------------------------------------------------------
# probes


def _batch(tracer, name: str, fn, args: list, **attrs) -> list:
    with tracer.span(name, calls=len(args), **attrs):
        return [fn(*a) for a in args]


# Region axis for random families that no spectrum request supplies.
RANDOM_AXIS = np.linspace(-1.5, 1.5, 21)


def probe_linalg(tracer, spec, xs, ys, window, count: int, rng) -> None:
    """Time ``solve_inverse`` then ``operator_norm`` of the inverse on
    ``count`` shifted matrices lam I - S_h, lam on the grid xs x ys and h
    in the tail window: one span per function, each batching its calls."""
    eye = np.eye(spec.dim)
    mats = []
    for _ in range(count):
        lam = complex(rng.choice(xs), rng.choice(ys))
        mats.append(lam * eye - family_eval_array(spec, float(rng.choice(window))))
    invs = _batch(tracer, "linalg.solve_inverse", asp.solve_inverse, [(m,) for m in mats], dim=spec.dim)
    norm_args = [(inv.matrix,) for inv in invs if inv is not None]
    _batch(tracer, "linalg.operator_norm", asp.operator_norm, norm_args, dim=spec.dim)


def run_probes(tracer, seed: int, repeat: int = 300) -> None:
    """Call the inner layers' public functions on the workloads' inputs."""
    small = workloads.spectrum_small(seed)
    large = workloads.spectrum_large(seed)
    grid = asp.geometric_grid()
    window = grid.window_samples

    fams = {
        "diag_expr": small[0].family.spec(),
        "sum": small[2].family.spec(),
        "jordan": asp.family_from_dict({"dim": 3, "node": small[1].family.doc["node"]["children"][0]}),
    }
    for kind, spec in fams.items():
        args = [(spec, h) for h in window] * repeat
        _batch(tracer, "families.family_eval_array", family_eval_array, args, kind=kind)

    # Shifted matrices lam I - S_h at sampled points of the workloads' regions.
    sources = {2: small[2], 16: large[0], 32: large[2]}
    rng = np.random.default_rng([seed, 4])
    per_dim = {2: 400, 8: 150, 16: 60, 32: 25}
    for dim, count in per_dim.items():
        if dim in sources:
            req = sources[dim]
            spec, xs, ys = req.family.spec(), req.region.xs, req.region.ys
        else:
            spec = asp.random_family(dim, int(rng.integers(2**31)), 1.0 / np.sqrt(dim))
            xs = ys = RANDOM_AXIS
        probe_linalg(tracer, spec, xs, ys, window, count, rng)

    for req in workloads.algebra(seed):
        args = [(*req.attrs.get("specs", ()), req.attrs.get("grid"), workloads.N_MAX)]
        if req.kind == "qequiv":
            _batch(tracer, "brackets.bracket_sequence", asp.bracket_sequence, args)
        elif req.kind == "qnil":
            _batch(tracer, "brackets.power_norm_sequence", asp.power_norm_sequence, args)
