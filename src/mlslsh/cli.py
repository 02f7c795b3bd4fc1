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
from .query import MODES, run_query

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

_INDEX_OPTIONS = [
    click.option("--radius", type=float, required=True, help="Target query radius."),
    click.option("--approx-c", type=float, default=2.0, show_default=True),
    click.option("--budget-L", "budget", type=int, default=None, help="Cap on repetitions."),
    _family_option,
    click.option("--cap-count", type=int, default=64, show_default=True),
    click.option("--trials", type=int, default=20000, show_default=True),
    click.option("--max-probes", type=int, default=16, show_default=True),
    click.option("--seed", type=int, default=0, show_default=True),
    click.option("--cache-dir", default=None, help="Calibration cache directory."),
]


def _index_options(fn):
    """The options that calibrate, size and seed an index, shared by build,
    bench and trend; `fn` receives them as one dict of BenchConfig fields."""

    # wraps carries over fn's docstring, the help text, and the options
    # declared below this decorator
    @functools.wraps(fn)
    def wrapper(radius, approx_c, budget, family, cap_count, trials, max_probes, seed,
                cache_dir, **kwargs):
        index_fields = dict(
            radius=radius,
            approx_c=approx_c,
            space_budget=budget,
            family_kind=_FAMILY_CHOICES[family],
            cap_count=cap_count,
            trials=trials,
            max_probes=max_probes,
            seed=seed,
            cache_dir=cache_dir,
        )
        return fn(index_fields, **kwargs)

    for option in reversed(_INDEX_OPTIONS):
        wrapper = option(wrapper)
    return wrapper


@click.group()
def main() -> None:
    """Parameter-free multi-level spherical LSH."""


@main.command()
@click.option("--input", "input_", required=True, help="Vector file or synth:n=...,d=...")
@click.option("--format", "fmt", type=click.Choice(["fvecs", "csv"]), default="fvecs", show_default=True)
@_index_options
@click.option("--output", required=True, help="Index file to write.")
@click.option(
    "--rebuildable/--full",
    default=False,
    show_default=True,
    help="Omit the hash keys; loading rehashes the stored points.",
)
@_json_errors
def build(index_fields, input_, fmt, output, rebuildable):
    """Build an index file from a dataset."""
    synth = _parse_synth(input_)
    config = BenchConfig(**index_fields)
    if synth:
        dataset = generate_planted_instance(
            n=synth["n"], d=synth["d"], r=config.radius, t=synth.get("t", 0), seed=config.seed
        ).dataset
    else:
        dataset = normalize_dataset(load_vectors(input_, fmt))
    index = build_for_config(config, dataset)
    index.save(output, include_codes=not rebuildable)
    cal = index.calibration
    _echo(
        {
            "output": output,
            "bytes": os.path.getsize(output),
            "n": index.size,
            "d": dataset.dim,
            "levels": index.levels,
            "repetitions": index.num_repetitions,
            "p1": cal.p1,
            "p1_std_error": cal.p1_std_error,
            "p2": cal.p2,
            "p2_std_error": cal.p2_std_error,
            "rho": cal.rho,
            "degenerate_ids": list(dataset.degenerate_ids),
        }
    )


@main.command()
@click.option("--index", "index_path", required=True, help="Index file.")
@click.option("--vector", required=True, help="Comma-separated query coordinates (raw space).")
@click.option("--radius", type=float, default=None, help="Defaults to the calibrated radius.")
@click.option("--mode", type=click.Choice(MODES), default="adaptive", show_default=True)
@click.option("--fixed-k", type=int, default=None, help="Level for fixed mode.")
@click.option("--fixed-j", type=int, default=None, help="Probes for fixed mode.")
@click.option("--timing/--no-timing", default=False, show_default=True)
@_json_errors
def query(index_path, vector, radius, mode, fixed_k, fixed_j, timing):
    """Run one range query against an index file."""
    index = load_index(index_path)
    q = map_query(index.dataset, _parse_vector(vector))
    if radius is None:
        radius = index.calibration.r
    report = run_query(mode, index, index.dataset, q, radius, (fixed_k, fixed_j))
    _echo(report.to_json_dict(include_timing=timing))


@main.command()
@click.option("--input", "input_", required=True, help="Vector file or synth:n=...,d=...")
@click.option("--format", "fmt", type=click.Choice(["fvecs", "csv"]), default="fvecs", show_default=True)
@_index_options
@click.option(
    "--mode",
    "modes",
    multiple=True,
    type=click.Choice(MODES),
    default=("adaptive",),
    show_default=True,
    help="Repeatable.",
)
@click.option("--queries", type=int, default=100, show_default=True)
@click.option("--planted", type=int, default=10, show_default=True)
@click.option("--fixed-k", type=int, default=None)
@click.option("--fixed-j", type=int, default=None)
@click.option("--output", default=None, help="Report JSON path; records go beside it.")
@_json_errors
def bench(index_fields, input_, fmt, modes, queries, planted, fixed_k, fixed_j, output):
    """Run a benchmark sweep and print aggregate statistics."""
    synth = _parse_synth(input_)
    config = BenchConfig(
        **index_fields,
        input_path=None if synth else input_,
        input_format=fmt,
        synthetic_n=synth["n"] if synth else None,
        synthetic_d=synth["d"] if synth else None,
        planted=synth.get("t", planted) if synth else planted,
        num_queries=queries,
        modes=tuple(modes),
        fixed_level=fixed_k,
        fixed_probes=fixed_j,
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
@_index_options
@click.option(
    "--mode",
    type=click.Choice(["adaptive", "single", "brute"]),
    default="adaptive",
    show_default=True,
)
@click.option("--queries", type=int, default=20, show_default=True)
@click.option("--planted", type=int, default=5, show_default=True)
@click.option("--output", default=None, help="Trend JSON path.")
@_json_errors
def trend(index_fields, sizes, dim, mode, queries, planted, output):
    """Fit the growth exponent of query work across dataset sizes."""
    try:
        size_list = [int(tok) for tok in sizes.split(",")]
    except ValueError as e:
        raise ValueError(f"bad sizes: {e}") from e
    config = BenchConfig(
        **index_fields,
        synthetic_d=dim,
        planted=planted,
        num_queries=queries,
        modes=(mode,),
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
