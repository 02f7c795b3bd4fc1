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
    WrongAnswerError,
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

def _fail(e: BaseException) -> None:
    doc = {"error": {"type": type(e).__name__, "message": str(e)}}
    click.echo(json.dumps(doc), err=True)
    sys.exit(1)


def _json_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, CalibrationError, IndexFormatError, OSError, WrongAnswerError) as e:
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
        if key in out:
            raise ValueError(f"synthetic field {key!r} given twice")
        try:
            out[key] = int(val)
        except ValueError:
            raise ValueError(f"synthetic field {key!r} must be an integer, got {val!r}") from None
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


# every option of the verbs that calibrate, declared once under the
# BenchConfig field it sets: build, bench and trend take all of them, probs a few
_SHARED_OPTIONS = {
    "radius": click.option("--radius", type=float, required=True, help="Target query radius."),
    "approx_c": click.option("--approx-c", type=float, default=2.0, show_default=True),
    "space_budget": click.option("--budget-L", "space_budget", type=int, help="Cap on repetitions."),
    # the choices are the family kinds with a hyphen for the underscore
    "family_kind": click.option("--family", "family_kind",
                                type=click.Choice(["cross-polytope", "spherical-cap"]),
                                default="cross-polytope", show_default=True, help="Hash family.",
                                callback=lambda _ctx, _param, value: value.replace("-", "_")),
    "cap_count": click.option("--cap-count", type=int, default=64, show_default=True),
    "trials": click.option("--trials", type=int, default=20000, show_default=True),
    "max_probes": click.option("--max-probes", type=int, default=16, show_default=True),
    "seed": click.option("--seed", type=int, default=0, show_default=True),
    "cache_dir": click.option("--cache-dir", default=None, help="Calibration cache directory."),
}


def _index_options(fn):
    """The options that calibrate, size and seed an index, shared by build,
    bench and trend."""
    for option in reversed(_SHARED_OPTIONS.values()):
        fn = option(fn)
    return fn


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
def build(input_, fmt, output, rebuildable, **fields):
    """Build an index file from a dataset."""
    synth = _parse_synth(input_)
    config = BenchConfig(**fields)
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
    if mode != "fixed" and (fixed_k, fixed_j) != (None, None):
        raise ValueError(f"--fixed-k and --fixed-j pin fixed mode only, not mode {mode!r}")
    raw = _parse_vector(vector)  # before the load, which may rehash a whole file
    index = load_index(index_path)
    q = map_query(index.dataset, raw)
    calibrated = index.calibration.r
    if radius is None:
        radius = calibrated
    report = run_query(mode, index, index.dataset, q, radius, (fixed_k, fixed_j))
    if radius != calibrated:
        click.echo(
            f"warning: radius {radius} differs from the calibrated radius {calibrated}; "
            "the repetition counts of the query settings assume the calibrated one",
            err=True,
        )
    if report.infeasible:
        click.echo(
            f"note: setting ({fixed_k}, {fixed_j}) needs more repetitions than the "
            f"{index.num_repetitions} built; answered with all of them",
            err=True,
        )
    _echo(report.to_json_dict(include_timing=timing))


@main.command()
@click.option(
    "--input", "input_", required=True,
    help="Vector file or synth:n=...,d=...[,t=...], t planted neighbors per query (default 10).",
)
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
@click.option("--queries", "num_queries", type=int, default=100, show_default=True)
@click.option("--fixed-k", "fixed_level", type=int, default=None)
@click.option("--fixed-j", "fixed_probes", type=int, default=None)
@click.option("--output", default=None, help="Report JSON path; records go beside it.")
@_json_errors
def bench(input_, fmt, output, **fields):
    """Run a benchmark sweep and print aggregate statistics."""
    synth = _parse_synth(input_) or {}
    config = BenchConfig(
        **fields,
        input_path=None if synth else input_,
        input_format=fmt,
        synthetic_n=synth.get("n"),
        synthetic_d=synth.get("d"),
        planted=synth.get("t", BenchConfig.planted),
    )
    report = run_benchmark(config)
    doc = report.to_json_dict()
    if output:
        doc["records_path"] = write_report(report, output)
        doc["report_path"] = output
    _echo(doc)


@main.command()
@_SHARED_OPTIONS["family_kind"]
@click.option("--dim", type=int, required=True)
@_SHARED_OPTIONS["radius"]
@_SHARED_OPTIONS["approx_c"]
@_SHARED_OPTIONS["cap_count"]
@_SHARED_OPTIONS["trials"]
@_SHARED_OPTIONS["seed"]
@_json_errors
def probs(family_kind, dim, radius, approx_c, cap_count, trials, seed):
    """Measure a family's collision probabilities at r and c*r."""
    params = FamilyParams(kind=family_kind, dim=dim, cap_count=cap_count)
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
@click.option("--dim", "synthetic_d", type=int, required=True)
@_index_options
@click.option(
    "--mode",
    type=click.Choice(["adaptive", "single", "brute"]),
    default="adaptive",
    show_default=True,
)
@click.option("--queries", "num_queries", type=int, default=20, show_default=True)
@click.option("--planted", type=int, default=5, show_default=True)
@click.option("--output", default=None, help="Trend JSON path.")
@_json_errors
def trend(sizes, mode, output, **fields):
    """Fit the growth exponent of query work across dataset sizes."""
    try:
        size_list = [int(tok) for tok in sizes.split(",")]
    except ValueError as e:
        raise ValueError(f"bad sizes: {e}") from e
    report = scaling_trend(size_list, BenchConfig(**fields, modes=(mode,)))
    doc = report.to_json_dict()
    if output:
        with open(output, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        doc["report_path"] = output
    _echo(doc)


if __name__ == "__main__":
    main()
