"""Command-line interface.

Verbs: build an index file, query one, run a benchmark sweep, measure a
family's collision probabilities, and fit a work scaling trend. All output
is JSON on stdout; failures print a JSON error object to stderr and exit 1.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import click
import numpy as np

from .bench import (
    BenchConfig,
    build_for_config,
    load_vectors,
    run_benchmark,
    scaling_trend,
    write_report,
)
from .calibration import CalibrationError, edge_probabilities, rho, theoretical_rho
from .families import FamilyParams
from .geometry import generate_planted_instance, map_query, normalize_dataset
from .index import IndexFormatError, load_index
from .query import (
    adaptive_multiprobe,
    brute_force_range,
    fixed_level_query,
    single_probe_adaptive,
)

_FAMILY_CHOICES = {"cross-polytope": "cross_polytope", "spherical-cap": "spherical_cap"}


def _fail(e: BaseException) -> None:
    doc = {"error": {"type": type(e).__name__, "message": str(e)}}
    click.echo(json.dumps(doc), err=True)
    sys.exit(1)


def _json_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, CalibrationError, IndexFormatError, OSError) as e:
            _fail(e)

    return wrapper


def _parse_synth(spec: str) -> dict | None:
    """Parse 'synth:n=10000,d=32[,t=5]' into integer fields; None for a file path."""
    if not spec.startswith("synth:"):
        return None
    body = spec[len("synth:") :]
    out = {}
    for part in body.split(","):
        if "=" not in part:
            raise ValueError(f"bad synthetic spec fragment {part!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in ("n", "d", "t"):
            raise ValueError(f"unknown synthetic field {key!r}, expected n, d, or t")
        out[key] = int(val)
    if "n" not in out or "d" not in out:
        raise ValueError("synthetic spec needs at least n and d, e.g. synth:n=1000,d=32")
    return out


def _parse_vector(text: str) -> np.ndarray:
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError as e:
        raise ValueError(f"bad vector: {e}") from e
    return np.array(vals, dtype=np.float64)


def _echo(doc: dict) -> None:
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


_family_option = click.option(
    "--family",
    type=click.Choice(sorted(_FAMILY_CHOICES)),
    default="cross-polytope",
    show_default=True,
    help="Hash family.",
)


@click.group()
def main() -> None:
    """Parameter-free multi-level spherical LSH."""


@main.command()
@click.option("--input", "input_", required=True, help="Vector file or synth:n=...,d=...")
@click.option("--format", "fmt", type=click.Choice(["fvecs", "csv"]), default="fvecs", show_default=True)
@click.option("--radius", type=float, required=True, help="Target query radius.")
@click.option("--approx-c", type=float, default=2.0, show_default=True)
@click.option("--budget-L", "budget", type=int, default=None, help="Cap on repetitions.")
@_family_option
@click.option("--cap-count", type=int, default=64, show_default=True)
@click.option("--trials", type=int, default=20000, show_default=True)
@click.option("--max-probes", type=int, default=16, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cache-dir", default=None, help="Calibration cache directory.")
@click.option("--output", required=True, help="Index file to write.")
@click.option(
    "--rebuildable/--full",
    default=False,
    show_default=True,
    help="Omit code matrices; loading recomputes them.",
)
@_json_errors
def build(
    input_, fmt, radius, approx_c, budget, family, cap_count, trials,
    max_probes, seed, cache_dir, output, rebuildable,
):
    """Build an index file from a dataset."""
    synth = _parse_synth(input_)
    config = BenchConfig(
        radius=radius,
        approx_c=approx_c,
        seed=seed,
        input_path=None if synth else input_,
        input_format=fmt,
        synthetic_n=synth["n"] if synth else None,
        synthetic_d=synth["d"] if synth else None,
        space_budget=budget,
        family_kind=_FAMILY_CHOICES[family],
        cap_count=cap_count,
        trials=trials,
        max_probes=max_probes,
        cache_dir=cache_dir,
        num_queries=1,
    )
    if synth:
        dataset = generate_planted_instance(
            n=synth["n"], d=synth["d"], r=radius, t=synth.get("t", 0), seed=seed
        ).dataset
    else:
        dataset = normalize_dataset(load_vectors(input_, fmt))
    index = build_for_config(config, dataset)
    index.save(output, include_codes=not rebuildable)
    cal = index.params.calibration
    _echo(
        {
            "output": output,
            "bytes": os.path.getsize(output),
            "n": index.size,
            "d": dataset.dim,
            "levels": index.levels,
            "repetitions": index.num_repetitions,
            "p1": cal.p1,
            "p2": cal.p2,
            "rho": cal.rho,
            "degenerate_ids": list(dataset.degenerate_ids),
        }
    )


@main.command()
@click.option("--index", "index_path", required=True, help="Index file.")
@click.option("--vector", required=True, help="Comma-separated query coordinates (raw space).")
@click.option("--radius", type=float, default=None, help="Defaults to the calibrated radius.")
@click.option(
    "--mode",
    type=click.Choice(["adaptive", "single", "fixed", "brute"]),
    default="adaptive",
    show_default=True,
)
@click.option("--fixed-k", type=int, default=None, help="Level for fixed mode.")
@click.option("--fixed-j", type=int, default=None, help="Probes for fixed mode.")
@click.option("--timing/--no-timing", default=False, show_default=True)
@_json_errors
def query(index_path, vector, radius, mode, fixed_k, fixed_j, timing):
    """Run one range query against an index file."""
    index = load_index(index_path)
    raw = _parse_vector(vector)
    q = map_query(index.dataset, raw)
    if mode == "brute":
        r = index.params.calibration.r if radius is None else radius
        report = brute_force_range(index.dataset, q.coords, r)
    elif mode == "adaptive":
        report = adaptive_multiprobe(index, q.coords, radius)
    elif mode == "single":
        report = single_probe_adaptive(index, q.coords, radius)
    else:
        if fixed_k is None or fixed_j is None:
            raise ValueError("fixed mode needs --fixed-k and --fixed-j")
        report = fixed_level_query(index, q.coords, radius, fixed_k, fixed_j)
    _echo(report.to_json_dict(include_timing=timing))


@main.command()
@click.option("--input", "input_", required=True, help="Vector file or synth:n=...,d=...")
@click.option("--format", "fmt", type=click.Choice(["fvecs", "csv"]), default="fvecs", show_default=True)
@click.option("--radius", type=float, required=True)
@click.option("--approx-c", type=float, default=2.0, show_default=True)
@click.option(
    "--mode",
    "modes",
    multiple=True,
    type=click.Choice(["adaptive", "single", "fixed", "brute"]),
    default=("adaptive",),
    show_default=True,
    help="Repeatable.",
)
@click.option("--queries", type=int, default=100, show_default=True)
@click.option("--planted", type=int, default=10, show_default=True)
@click.option("--budget-L", "budget", type=int, default=None)
@_family_option
@click.option("--cap-count", type=int, default=64, show_default=True)
@click.option("--trials", type=int, default=20000, show_default=True)
@click.option("--max-probes", type=int, default=16, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--fixed-k", type=int, default=None)
@click.option("--fixed-j", type=int, default=None)
@click.option("--cache-dir", default=None)
@click.option("--output", default=None, help="Report JSON path; records go beside it.")
@_json_errors
def bench(
    input_, fmt, radius, approx_c, modes, queries, planted, budget, family,
    cap_count, trials, max_probes, seed, fixed_k, fixed_j, cache_dir, output,
):
    """Run a benchmark sweep and print aggregate statistics."""
    synth = _parse_synth(input_)
    config = BenchConfig(
        radius=radius,
        approx_c=approx_c,
        seed=seed,
        input_path=None if synth else input_,
        input_format=fmt,
        synthetic_n=synth["n"] if synth else None,
        synthetic_d=synth["d"] if synth else None,
        planted=synth.get("t", planted) if synth else planted,
        num_queries=queries,
        space_budget=budget,
        family_kind=_FAMILY_CHOICES[family],
        cap_count=cap_count,
        trials=trials,
        max_probes=max_probes,
        modes=tuple(modes),
        fixed_level=fixed_k,
        fixed_probes=fixed_j,
        cache_dir=cache_dir,
    )
    report = run_benchmark(config)
    doc = report.to_json_dict()
    if output:
        doc["records_path"] = write_report(report, output)
        doc["report_path"] = output
    _echo(doc)


@main.command()
@_family_option
@click.option("--dim", type=int, required=True)
@click.option("--radius", type=float, required=True)
@click.option("--approx-c", type=float, default=2.0, show_default=True)
@click.option("--cap-count", type=int, default=64, show_default=True)
@click.option("--trials", type=int, default=20000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_json_errors
def probs(family, dim, radius, approx_c, cap_count, trials, seed):
    """Measure a family's collision probabilities at r and c*r."""
    params = FamilyParams(
        kind=_FAMILY_CHOICES[family], dim=dim, cap_count=cap_count
    )
    near, far, p2 = edge_probabilities(params, radius, approx_c, trials, seed)
    _echo(
        {
            "family": params.to_json_dict(),
            "radius": radius,
            "approx_c": approx_c,
            "trials": trials,
            "p1": near.probability,
            "p1_std_error": near.std_error,
            "p2_raw": far.probability,
            "p2_std_error": far.std_error,
            "p2_used": p2,
            "rho": rho(near.probability, p2),
            "theoretical_rho_euclidean": theoretical_rho("euclidean", approx_c),
        }
    )


@main.command()
@click.option("--sizes", required=True, help="Comma-separated dataset sizes, e.g. 1000,10000,100000")
@click.option("--dim", type=int, required=True)
@click.option("--radius", type=float, required=True)
@click.option("--approx-c", type=float, default=2.0, show_default=True)
@click.option(
    "--mode",
    type=click.Choice(["adaptive", "single", "brute"]),
    default="adaptive",
    show_default=True,
)
@click.option("--queries", type=int, default=20, show_default=True)
@click.option("--planted", type=int, default=5, show_default=True)
@click.option("--budget-L", "budget", type=int, default=None)
@_family_option
@click.option("--cap-count", type=int, default=64, show_default=True)
@click.option("--trials", type=int, default=20000, show_default=True)
@click.option("--max-probes", type=int, default=16, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cache-dir", default=None)
@click.option("--output", default=None, help="Trend JSON path.")
@_json_errors
def trend(
    sizes, dim, radius, approx_c, mode, queries, planted, budget, family,
    cap_count, trials, max_probes, seed, cache_dir, output,
):
    """Fit the growth exponent of query work across dataset sizes."""
    try:
        size_list = [int(tok) for tok in sizes.split(",")]
    except ValueError as e:
        raise ValueError(f"bad sizes: {e}") from e
    config = BenchConfig(
        radius=radius,
        approx_c=approx_c,
        seed=seed,
        synthetic_n=max(size_list),
        synthetic_d=dim,
        planted=planted,
        num_queries=queries,
        space_budget=budget,
        family_kind=_FAMILY_CHOICES[family],
        cap_count=cap_count,
        trials=trials,
        max_probes=max_probes,
        modes=(mode,),
        cache_dir=cache_dir,
    )
    report = scaling_trend(size_list, config)
    doc = report.to_json_dict()
    if output:
        with open(output, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        doc["report_path"] = output
    _echo(doc)


if __name__ == "__main__":
    main()
