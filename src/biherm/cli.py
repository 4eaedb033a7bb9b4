"""Command-line front end.

Reads matrices and forms from JSON files, runs the analyses, and writes
deterministic structured reports.  Exit codes: 0 when the analysis ran
and every asserted check passed, 1 when the analysis ran but a
mathematical check failed (for example a candidate transformation that
is not bi-unitary, or an inadmissible triple), 2 for malformed files,
output files that cannot be written, or usage errors.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from pathlib import Path

import click

from . import __version__
from .connecting import connecting_operator, invariants_hold, verify_biunitary
from .decomposition import (
    build_decomposition,
    check_genericity_consistency,
    check_proportionality,
    sample_biunitary,
)
from .errors import BihermError, FileFormatError
from .forms import DEFAULT_TOLERANCES, ComplexStructureJ, HermitianForm, RealForm, Tolerances
from .matrixio import load_matrix, load_triple, save_matrix, save_triple
from .report import render_report
from .spectral import (
    bicommutant_dimension,
    group_signature,
    is_generic_by_spectrum,
    spectral_resolution,
)
from .triples import (
    complexification_from_j,
    hermitian_from_triple,
    triple_from_g_j,
    triple_from_g_omega,
)


def _input(flag: str, required: bool = True):
    """An existing input file; its path is reported under ``inputs.<flag>``."""
    return click.option(
        f"--{flag}", f"{flag}_path", required=required, type=click.Path(exists=True, dir_okay=False)
    )


_PAIR = (_input("h1"), _input("h2"))
_ARTIFACT = click.option("--out", required=True, type=click.Path(dir_okay=False))
_REPORT_OUT = click.option(
    "--out", "report_out", type=click.Path(dir_okay=False), help="Write the report here instead of stdout."
)
# applied innermost first, so they list last in --help, in reverse order
_COMMON_OPTIONS = (
    click.option(
        "--tol-eig",
        type=float,
        default=DEFAULT_TOLERANCES.tol_eig,
        show_default=True,
        envvar="BIHERM_TOL_EIG",
        help="Relative eigenvalue-cluster / rank threshold (env: BIHERM_TOL_EIG; flag wins).",
    ),
    click.option(
        "--tol-resid",
        type=float,
        default=DEFAULT_TOLERANCES.tol_resid,
        show_default=True,
        help="Relative residual tolerance for operator identities.",
    ),
    click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "text"]),
        default="json",
        show_default=True,
        help="Report format.",
    ),
    click.option("--quiet", is_flag=True, help="Suppress the report on stdout."),
)


@click.group()
@click.version_option(__version__, prog_name="biherm")
def main():
    """Analyze pairs of Hermitian structures on finite-dimensional spaces.

    Build admissible (metric, complex structure, symplectic form)
    triples, turn them into Hermitian forms, compute the connecting
    operator of a pair, classify its bi-unitary group, test genericity
    and cyclicity, and decompose the space into spectral fibers.
    """


def _exit(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


def _command(name: str, *options):
    """Register ``body(tol, **params) -> (results, passed)`` as subcommand ``name``.

    The command takes ``options`` plus the common tolerance, format and
    quiet options.  It wraps the results in the report envelope, renders
    it to stdout (or to ``--out`` when that names the report file), and
    exits 0 when ``passed``, 1 when not or when the analysis raised, and 2
    on a malformed file, an output file that cannot be written, or a
    usage error.
    """

    def register(body):
        @functools.wraps(body)
        def callback(tol_eig, tol_resid, fmt, quiet, report_out=None, **params):
            try:
                tol = Tolerances(tol_eig=tol_eig, tol_resid=tol_resid)
            except ValueError as exc:
                raise click.UsageError(str(exc))
            try:
                results, passed = body(tol, **params)
            except FileFormatError as exc:
                _exit(2, f"error: {exc}")
            except OSError as exc:  # inputs are read through matrixio, so an artifact write failed
                _exit(2, f"error: cannot write file: {exc}")
            except (BihermError, ValueError) as exc:
                _exit(1, f"analysis failed: {exc}")
            inputs = {k.removesuffix("_path"): v for k, v in params.items() if k.endswith("_path")}
            report = {
                "command": name,
                "inputs": {k: v for k, v in inputs.items() if v is not None},
                "tolerances": dataclasses.asdict(tol),
                "results": results,
                "passed": passed,
            }
            if "seed" in params:
                report["seed"] = params["seed"]
            text = render_report(report, fmt) + "\n"
            if report_out is not None:
                try:
                    Path(report_out).write_text(text, encoding="utf-8")
                except OSError as exc:
                    _exit(2, f"error: cannot write file: {exc}")
            elif not quiet:
                click.echo(text, nl=False)
            sys.exit(0 if passed else 1)

        for option in _COMMON_OPTIONS + options[::-1]:
            callback = option(callback)
        return main.command(name)(callback)

    return register


def _load_forms(h1_path, h2_path, tol) -> list[HermitianForm]:
    """Both files are read first, so a malformed file (exit 2) wins over a bad form."""
    mats = [load_matrix(path, ("complex_hermitian",), tol)[1] for path in (h1_path, h2_path)]
    return [HermitianForm(mat, tol) for mat in mats]


def _load_pair(h1_path, h2_path, tol):
    """The two forms of a pair and their connecting operator."""
    h1, h2 = _load_forms(h1_path, h2_path, tol)
    return h1, h2, connecting_operator(h1, h2, tol)


@_command("triple", _input("g"), _input("j", False), _input("omega", False), _ARTIFACT)
def triple(tol, g_path, j_path, omega_path, out):
    """Build an admissible triple from a metric plus J or omega."""
    if (j_path is None) == (omega_path is None):
        raise click.UsageError("provide exactly one of --j or --omega")
    _, g_mat = load_matrix(g_path, ("real_symmetric",), tol)
    g = RealForm(g_mat, "symmetric", tol)
    if j_path is not None:
        _, j_mat = load_matrix(j_path, ("real_general",), tol)
        trip = triple_from_g_j(g, ComplexStructureJ(j_mat, tol), tol)
    else:
        _, w_mat = load_matrix(omega_path, ("real_antisymmetric",), tol)
        trip = triple_from_g_omega(g, RealForm(w_mat, "antisymmetric", tol), tol)
    save_triple(out, trip, meta={"residuals": trip.residuals})
    results = {
        "dim": trip.dim,
        "metric_min_eigenvalue": trip.metric_min_eigenvalue,
        "residuals": trip.residuals,
        "out": str(out),
    }
    return results, True


@_command("hermitian", _input("triple"), _ARTIFACT)
def hermitian(tol, triple_path, out):
    """Hermitian form of a triple in canonical J-adapted coordinates."""
    trip = load_triple(triple_path, tol)
    cmap = complexification_from_j(trip.j, tol)
    form = hermitian_from_triple(trip, cmap)
    save_matrix(out, form.gram, "complex_hermitian")
    w = form.eigenvalues
    results = {
        "complex_dim": form.dim,
        "min_eigenvalue": float(w[0]),
        "max_eigenvalue": float(w[-1]),
        "out": str(out),
    }
    return results, True


@_command("connect", *_PAIR, _ARTIFACT)
def connect(tol, h1_path, h2_path, out):
    """Connecting operator G with h2(x, y) = h1(Gx, y)."""
    _, _, op = _load_pair(h1_path, h2_path, tol)
    save_matrix(out, op.mat, "complex_general", meta={"residuals": op.residuals})
    results = {
        "dim": op.dim,
        "ill_conditioned": op.ill_conditioned,
        "residuals": op.residuals,
        "out": str(out),
    }
    return results, invariants_hold(op.residuals, tol)


@_command("spectrum", *_PAIR, _REPORT_OUT)
def spectrum(tol, h1_path, h2_path):
    """Clustered spectrum and bi-unitary group signature of a pair."""
    _, _, op = _load_pair(h1_path, h2_path, tol)
    res = spectral_resolution(op)
    results = {
        "dim": op.dim,
        "eigenvalues": [float(v) for v in res.eigenvalues],
        "multiplicities": list(res.multiplicities),
        "signature": str(group_signature(res)),
        "cluster_gap": res.cluster_gap,
    }
    return results, True


@_command(
    "generic",
    *_PAIR,
    click.option(
        "--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Reported; the verdicts do not use it."
    ),
    _REPORT_OUT,
)
def generic(tol, h1_path, h2_path, seed):
    """Genericity verdicts, commutant dimensions and cyclicity."""
    _, _, op = _load_pair(h1_path, h2_path, tol)
    res = spectral_resolution(op)
    by_spectrum = is_generic_by_spectrum(res)
    comm_dim = res.commutant_dimension
    bicomm_dim = bicommutant_dimension(res)
    by_commutant = comm_dim == bicomm_dim
    cyclic = comm_dim == op.dim  # is_cyclic's test, on the resolution held here
    agreement = by_spectrum == by_commutant == cyclic
    results = {
        "generic_by_spectrum": by_spectrum,
        "generic_by_commutant": by_commutant,
        "cyclic": cyclic,
        "commutant_dimension": comm_dim,
        "bicommutant_dimension": bicomm_dim,
        "signature": str(group_signature(res)),
        "agreement": agreement,
    }
    return results, agreement


@_command("decompose", *_PAIR, _REPORT_OUT)
def decompose(tol, h1_path, h2_path):
    """Fibered decomposition, proportionality and dimension checks."""
    h1, h2, op = _load_pair(h1_path, h2_path, tol)
    dec = build_decomposition(op)
    prop = check_proportionality(dec, h1, h2)
    results = {
        "fibers": [{"eigenvalue": f.eigenvalue, "weight": f.weight, "dim": f.dim} for f in dec.fibers],
        "segments": {str(k): list(v) for k, v in dec.segments.items()},
        "proportionality": {"max_violation": list(prop.max_violation), "passed": prop.passed},
        "all_fibers_unidimensional": check_genericity_consistency(dec, op),
    }
    return results, prop.passed


@_command("sample-u", *_PAIR, click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True), _ARTIFACT)
def sample_u(tol, h1_path, h2_path, seed, out):
    """Sample a random bi-unitary transformation of a pair."""
    h1, h2, op = _load_pair(h1_path, h2_path, tol)
    dec = build_decomposition(op)
    u = sample_biunitary(dec, seed)
    rep = verify_biunitary(u, h1, h2, connecting=op)
    save_matrix(out, u, "complex_general")
    results = {
        "dim": op.dim,
        "block_dims": list(dec.multiplicities),
        "residual_h1": rep.residual_h1,
        "residual_h2": rep.residual_h2,
        "residual_commutator": rep.residual_commutator,
        "out": str(out),
    }
    return results, rep.passed


@_command("verify-u", _input("u"), *_PAIR, _REPORT_OUT)
def verify_u(tol, u_path, h1_path, h2_path):
    """Check whether a transformation preserves both forms."""
    _, u = load_matrix(u_path, ("complex_general", "complex_hermitian"), tol)
    # no _load_pair: verify_biunitary checks the dimensions before it computes G
    h1, h2 = _load_forms(h1_path, h2_path, tol)
    rep = verify_biunitary(u, h1, h2, tol)
    return dataclasses.asdict(rep), rep.passed


if __name__ == "__main__":
    main()
