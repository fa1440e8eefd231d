"""End-to-end and per-layer metrics computed from one run's records.

``END_TO_END`` and ``PER_LAYER`` are the metric tables of BENCHMARK.json
(name, unit, which direction is better).  Each per-layer entry also names
the end-to-end metrics and workloads it is expected to move; README.md
prints the same table.  Per-layer times and counts are totals over the
traced phase divided by its requests, unless the unit says otherwise.
"""

from __future__ import annotations

import math
import resource
import statistics

import numpy as np

from tracing import ROUTE_SPANS

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_rps", "req/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("cpu_ms_per_request", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_fraction", "fraction", "higher"),
)

# name, unit, better, expected to move (end-to-end metric on workload)
PER_LAYER = (
    ("surfaces.node_build_ms", "ms/req", "lower",
     "throughput_rps, latency_p50_ms on cli-mix; setup_s only on forces-warm"),
    ("surfaces.nodes_built", "nodes/req", "lower",
     "throughput_rps, latency_p50_ms on cli-mix; setup_s only on forces-warm"),
    ("surfaces.quadrature_hit_ratio", "ratio", "higher",
     "1 on forces-warm after set-up, below 1 on cli-mix"),
    ("surfaces.volume_build_ms", "ms/req", "lower",
     "latency_tail_ms on cli-mix (verify)"),
    ("surfaces.volume_nodes_built", "nodes/req", "lower",
     "latency_tail_ms on cli-mix (verify)"),
    ("surfaces.integrate_ms", "ms/req", "lower",
     "cli-mix (verify) and completion (Cauchy check)"),
    ("surfaces.pool_starts", "starts/req", "lower",
     "cpu_ms_per_request, throughput_rps on cli-mix"),
    ("surfaces.pool_starts_default", "starts/req", "lower",
     "must stay 0: pools start only under --threads 2"),
    ("surfaces.evaluate_nodes_ms", "ms/req", "lower",
     "cpu_ms_per_request, throughput_rps on cli-mix"),
    ("fields.jet_calls", "jets/req", "lower", "throughput_rps on forces-warm"),
    ("fields.jet_ms", "ms/req", "lower", "throughput_rps on forces-warm"),
    ("fields.jets_per_surface_node", "jets/node", "lower",
     "throughput_rps on forces-warm"),
    ("fields.is_monogenic_ms", "ms/req", "lower",
     "completion; verify in cli-mix"),
    ("potentials.completion_jet_ms", "ms/jet", "lower",
     "throughput_rps, latency_p50_ms on completion"),
    ("potentials.completion_u_calls_per_jet", "calls/jet", "lower",
     "throughput_rps, latency_p50_ms on completion"),
    ("quaternion.products_per_request", "products/req", "lower",
     "throughput_rps on forces-warm (cut by batching) and completion "
     "(unchanged)"),
    ("forces.all_force_methods_ms", "ms/req", "lower",
     "throughput_rps, latency_p50_ms on forces-warm; force share of cli-mix"),
    ("forces.pressure_ms", "ms/req", "lower",
     "throughput_rps, latency_p50_ms on forces-warm; force share of cli-mix"),
    ("forces.blasius_ms", "ms/req", "lower",
     "throughput_rps, latency_p50_ms on forces-warm; force share of cli-mix"),
    ("forces.components_sc_ms", "ms/req", "lower",
     "throughput_rps, latency_p50_ms on forces-warm; force share of cli-mix"),
    ("forces.monogenic_form_ms", "ms/req", "lower",
     "throughput_rps, latency_p50_ms on forces-warm; force share of cli-mix"),
    ("forces.moment_quadratic_ms", "ms/req", "lower",
     "throughput_rps, latency_p50_ms on forces-warm; moment share of cli-mix"),
    ("forces.moment_pressure_ms", "ms/req", "lower",
     "throughput_rps, latency_p50_ms on forces-warm; moment share of cli-mix"),
    ("forces.route_nodes_per_s", "nodes/s", "higher",
     "throughput_rps on forces-warm"),
    ("forces.gate_refusal_ratio", "ratio", "lower",
     "behaviour count on forces-warm and cli-mix; must not move"),
    ("integrals.verify_stokes_ms", "ms/req", "lower",
     "latency_tail_ms on cli-mix"),
    ("integrals.stokes_volume_self_ms", "ms/req", "lower",
     "latency_tail_ms on cli-mix"),
    ("integrals.cauchy_reconstruct_ms", "ms/req", "lower",
     "latency_tail_ms on cli-mix"),
    ("integrals.verify_cauchy_ms", "ms/req", "lower",
     "throughput_rps, latency_tail_ms on completion"),
    ("planar.reduce_and_compare_ms", "ms/req", "lower",
     "throughput_rps on cli-mix"),
    ("planar.contour_self_ms", "ms/req", "lower",
     "throughput_rps on cli-mix"),
    ("scenarios.catalog_ms", "ms/req", "lower",
     "throughput_rps on cli-mix"),
    ("cli.verify_ms", "ms/req", "lower",
     "latency_tail_ms, throughput_rps on cli-mix"),
    ("cli.force_ms", "ms/req", "lower",
     "throughput_rps, latency_tail_ms on cli-mix"),
    ("cli.moment_ms", "ms/req", "lower",
     "latency_p50_ms on cli-mix"),
    ("cli.convergence_ms", "ms/req", "lower",
     "latency_p50_ms on cli-mix"),
    ("cli.reduce2d_ms", "ms/req", "lower",
     "latency_p50_ms on cli-mix"),
    ("cli.self_ms", "ms/req", "lower",
     "latency_p50_ms on cli-mix (argparse and output)"),
    ("cli.threaded_over_serial", "ratio", "lower",
     "throughput_rps, cpu_ms_per_request on cli-mix"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none; untraced over traced throughput_rps"),
)

# The percentile ladder for latency_tail_ms: the highest rung with at
# least TAIL_BEYOND samples above it in the smallest run a workload makes
# (its minimum number of passes) is reported, so every run and commit
# reports the same percentile.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x
                   / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (0 < p < 1).

    A weighted average of all order statistics, weights from the
    Beta(p (n+1), (1-p)(n+1)) distribution.  In a mixed workload a single
    order statistic jumps between request types from run to run; this
    estimator does not.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail_percentile(n: int) -> float:
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= 100.0 * TAIL_BEYOND - 1e-9:
            return p
    return 50.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcomes, scale: float, probes,
               min_samples: int) -> tuple[dict, dict]:
    """The seven end-to-end values, plus facts about how they were taken.

    Times are multiplied by the calibration factors (see calibration.py):
    ``scale`` for the requests, and one factor per set-up probe in
    ``probes`` (pairs of raw seconds and factor).  The raw values go into
    the facts.  ``min_samples`` is the smallest request count the
    workload's runs can have; it fixes the tail percentile.
    """
    lat = np.array([o.latency_s for o in outcomes])
    n = len(lat)
    tail_p = tail_percentile(min_samples)
    raw = {
        "setup_s": statistics.median(raw_s for raw_s, _ in probes),
        "throughput_rps": n / float(lat.sum()),
        "latency_p50_ms": 1000.0 * hd_quantile(lat, 0.5),
        "latency_tail_ms": 1000.0 * hd_quantile(lat, tail_p / 100.0),
        "cpu_ms_per_request": 1000.0 * sum(o.cpu_s for o in outcomes) / n,
    }
    values = {
        "setup_s": statistics.median(raw_s * f for raw_s, f in probes),
        "throughput_rps": raw["throughput_rps"] / scale,
        "latency_p50_ms": raw["latency_p50_ms"] * scale,
        "latency_tail_ms": raw["latency_tail_ms"] * scale,
        "cpu_ms_per_request": raw["cpu_ms_per_request"] * scale,
        "peak_rss_mb": peak_rss_mb(),
        "success_fraction": sum(o.ok for o in outcomes) / n,
    }
    facts = {"requests": n, "tail_percentile": tail_p,
             "tail_samples_beyond": int(np.sum(
                 1000.0 * lat > raw["latency_tail_ms"])),
             "calibration_factor": scale,
             "setup_probes": [list(p) for p in probes],
             "raw": raw}
    return values, facts


def _span_times(spans):
    """Total and self duration (minus direct children) per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None and end is not None:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        if end is None:
            continue
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start
                                                      - child_time[i])
    return total, self_time


def _child_time(spans, parent_name: str, child_name: str) -> float:
    out = 0.0
    for name, start, end, parent, _ in spans:
        if (name == child_name and parent is not None and end is not None
                and spans[parent][0] == parent_name):
            out += end - start
    return out


def _ratio(num: float, den: float):
    return num / den if den else None


def per_layer(tracer, outcomes, untraced_outcomes, extra: dict,
              overhead: float) -> dict:
    """Per-layer values for the traced phase; None marks not measured.

    Times here are raw (not calibrated); ``overhead`` is the calibrated
    untraced over traced throughput.
    """
    spans = tracer.spans
    n = len(outcomes)
    total, self_time = _span_times(spans)

    def per_req_ms(seconds: float) -> float:
        return 1000.0 * seconds / n

    def span_ms(name: str) -> float:
        return per_req_ms(total.get(name, 0.0))

    c = tracer.count
    nodes = sum(o.tags.get("nodes", 0) for o in outcomes)
    jets_on_nodes = sum(o.tags.get("jets", 0) for o in outcomes
                        if "nodes" in o.tags)
    route_busy = sum(total.get(name, 0.0) for name in ROUTE_SPANS)
    cli_self = sum(self_time.get(name, 0.0) for name in (
        "cli.main", "cli.verify", "cli.force", "cli.moment",
        "cli.convergence", "cli.reduce2d"))
    default_starts = sum(o.tags.get("pool_starts", 0) for o in outcomes
                         if not o.tags.get("threaded", False))

    values = {
        "surfaces.node_build_ms": per_req_ms(c("chart_nodes_s")),
        "surfaces.nodes_built": c("chart_nodes_points") / n,
        "surfaces.quadrature_hit_ratio": _ratio(c("quadrature_hits"),
                                                c("quadrature_calls")),
        "surfaces.volume_build_ms": per_req_ms(c("volume_build_s")),
        "surfaces.volume_nodes_built": c("volume_nodes_built") / n,
        "surfaces.integrate_ms": per_req_ms(
            self_time.get("integrate_g_dsigma_f", 0.0)),
        "surfaces.pool_starts": c("pool_starts") / n,
        "surfaces.pool_starts_default": default_starts / n,
        "surfaces.evaluate_nodes_ms": per_req_ms(c("evaluate_nodes_s")),
        "fields.jet_calls": c("jet_calls") / n,
        "fields.jet_ms": per_req_ms(c("jet_s")),
        "fields.jets_per_surface_node": _ratio(jets_on_nodes, nodes),
        "fields.is_monogenic_ms": span_ms("is_monogenic"),
        "potentials.completion_jet_ms": _ratio(
            1000.0 * extra.get("completion_jet_s", 0.0),
            extra.get("completion_jets", 0)),
        "potentials.completion_u_calls_per_jet": _ratio(
            extra.get("completion_u_calls", 0),
            extra.get("completion_jets", 0)),
        "quaternion.products_per_request": c("products") / n,
        "forces.all_force_methods_ms": span_ms("all_force_methods"),
        "forces.pressure_ms": span_ms("force_pressure_direct"),
        "forces.blasius_ms": span_ms("force_blasius"),
        "forces.components_sc_ms": span_ms("force_components_sc"),
        "forces.monogenic_form_ms": span_ms("force_monogenic_form"),
        "forces.moment_quadratic_ms": span_ms("moment_quadratic"),
        "forces.moment_pressure_ms": span_ms("moment_from_pressure"),
        "forces.route_nodes_per_s": _ratio(c("route_nodes"), route_busy),
        "forces.gate_refusal_ratio": _ratio(c("gate_refusals"),
                                            c("all_force_methods_calls")),
        "integrals.verify_stokes_ms": span_ms("verify_stokes"),
        "integrals.stokes_volume_self_ms": per_req_ms(
            total.get("verify_stokes", 0.0)
            - _child_time(spans, "verify_stokes", "integrate_g_dsigma_f")),
        "integrals.cauchy_reconstruct_ms": span_ms("cauchy_reconstruct"),
        "integrals.verify_cauchy_ms": span_ms("verify_cauchy_theorem"),
        "planar.reduce_and_compare_ms": span_ms("reduce_and_compare"),
        "planar.contour_self_ms": per_req_ms(
            self_time.get("reduce_and_compare", 0.0)),
        "scenarios.catalog_ms": span_ms("scenario_catalog"),
        "cli.verify_ms": span_ms("cli.verify"),
        "cli.force_ms": span_ms("cli.force"),
        "cli.moment_ms": span_ms("cli.moment"),
        "cli.convergence_ms": span_ms("cli.convergence"),
        "cli.reduce2d_ms": span_ms("cli.reduce2d"),
        "cli.self_ms": per_req_ms(cli_self),
        "cli.threaded_over_serial": threaded_over_serial(untraced_outcomes),
        "trace.overhead_ratio": overhead,
    }
    return values


def throughput(outcomes, scale: float) -> float:
    return len(outcomes) / (scale * sum(o.latency_s for o in outcomes))


def threaded_over_serial(outcomes):
    """Median over argvs of --threads 2 latency over default latency."""
    by_argv: dict[str, dict[bool, list[float]]] = {}
    for o in outcomes:
        if "argv" not in o.tags:
            continue
        slot = by_argv.setdefault(o.tags["argv"], {True: [], False: []})
        slot[o.tags["threaded"]].append(o.latency_s)
    ratios = [statistics.median(s[True]) / statistics.median(s[False])
              for s in by_argv.values() if s[True] and s[False]]
    return statistics.median(ratios) if ratios else None


def finite_or_zero(values: dict) -> tuple[dict, list[str]]:
    """Replace None (not measured here) by 0 and list those names."""
    missing = sorted(k for k, v in values.items()
                     if v is None or not math.isfinite(v))
    return ({k: (0.0 if k in missing else v) for k, v in values.items()},
            missing)
