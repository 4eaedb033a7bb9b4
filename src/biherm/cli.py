"""Command-line front end.

Reads matrices and forms from JSON files, runs the analyses, and writes
deterministic structured reports.  Exit codes: 0 when the analysis ran
and every asserted check passed, 1 when the analysis ran but a
mathematical check failed (for example a candidate transformation that
is not bi-unitary, or an inadmissible triple), 2 for malformed files or
usage errors.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from .connecting import connecting_operator, invariants_hold, verify_biunitary
from .decomposition import (
    build_decomposition,
    check_genericity_consistency,
    check_proportionality,
    sample_biunitary,
)
from .errors import BihermError, DimensionMismatchError, FileFormatError
from .forms import (
    _TINY,
    ComplexStructureJ,
    HermitianForm,
    RealForm,
    Tolerances,
    validate_positive,
)
from .matrixio import load_matrix, load_triple, save_matrix, save_triple
from .report import render_report
from .spectral import (
    bicommutant_dimension,
    group_signature,
    is_cyclic,
    is_generic_by_spectrum,
    spectral_resolution,
)
from .triples import (
    complexification_from_j,
    hermitian_from_triple,
    triple_from_g_j,
    triple_from_g_omega,
)


def _common_options(fn):
    fn = click.option(
        "--tol-eig",
        type=float,
        default=1e-8,
        show_default=True,
        envvar="BIHERM_TOL_EIG",
        help="Relative eigenvalue-cluster / rank threshold (env: BIHERM_TOL_EIG; flag wins).",
    )(fn)
    fn = click.option(
        "--tol-resid",
        type=float,
        default=1e-10,
        show_default=True,
        help="Relative residual tolerance for operator identities.",
    )(fn)
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "text"]),
        default="json",
        show_default=True,
        help="Report format.",
    )(fn)
    fn = click.option("--quiet", is_flag=True, help="Suppress the report on stdout.")(fn)
    return fn


def _tolerances(tol_eig: float, tol_resid: float) -> Tolerances:
    try:
        return Tolerances(tol_eig=tol_eig, tol_resid=tol_resid)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _tol_payload(tol: Tolerances) -> dict:
    return {
        "tol_sym": tol.tol_sym,
        "tol_j": tol.tol_j,
        "tol_eig": tol.tol_eig,
        "tol_resid": tol.tol_resid,
    }


def _emit(report: dict, passed: bool, fmt: str, quiet: bool, report_out=None):
    text = render_report(report, fmt) + "\n"
    if report_out is not None:
        Path(report_out).write_text(text, encoding="utf-8")
    elif not quiet:
        click.echo(text, nl=False)
    sys.exit(0 if passed else 1)


def _run(builder):
    """Run an analysis body with the exit-code triage applied."""
    try:
        return builder()
    except FileFormatError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except (BihermError, ValueError) as exc:
        click.echo(f"analysis failed: {exc}", err=True)
        sys.exit(1)


def _load_hermitian_pair(h1_path, h2_path, tol) -> tuple[HermitianForm, HermitianForm]:
    _, m1 = load_matrix(h1_path, ("complex_hermitian",), tol)
    _, m2 = load_matrix(h2_path, ("complex_hermitian",), tol)
    return HermitianForm(m1, tol), HermitianForm(m2, tol)


@click.group()
@click.version_option("0.1.0", prog_name="biherm")
def main():
    """Analyze pairs of Hermitian structures on finite-dimensional spaces.

    Build admissible (metric, complex structure, symplectic form)
    triples, turn them into Hermitian forms, compute the connecting
    operator of a pair, classify its bi-unitary group, test genericity
    and cyclicity, and decompose the space into spectral fibers.
    """


@main.command()
@click.option("--g", "g_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--j", "j_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--omega", "omega_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_common_options
def triple(g_path, j_path, omega_path, out_path, tol_eig, tol_resid, fmt, quiet):
    """Build an admissible triple from a metric plus J or omega."""
    if (j_path is None) == (omega_path is None):
        raise click.UsageError("provide exactly one of --j or --omega")
    tol = _tolerances(tol_eig, tol_resid)

    def body():
        _, g_mat = load_matrix(g_path, ("real_symmetric",), tol)
        g = RealForm(g_mat, "symmetric", tol)
        if j_path is not None:
            _, j_mat = load_matrix(j_path, ("real_general",), tol)
            trip = triple_from_g_j(g, ComplexStructureJ(j_mat, tol), tol)
            source = {"g": g_path, "j": j_path}
        else:
            _, w_mat = load_matrix(omega_path, ("real_antisymmetric",), tol)
            trip = triple_from_g_omega(g, RealForm(w_mat, "antisymmetric", tol), tol)
            source = {"g": g_path, "omega": omega_path}

        gg, jj, ww = trip.g.gram, trip.j.mat, trip.omega.gram
        scale = max(float(np.max(np.abs(gg))), _TINY)
        residuals = {
            "j_squared": float(np.max(np.abs(jj @ jj + np.eye(trip.dim)))),
            "anti_hermitian": float(np.max(np.abs(jj.T @ gg + gg @ jj))) / scale,
            "omega_link": float(np.max(np.abs(ww - gg @ jj))) / scale,
        }
        save_triple(out_path, trip, meta={"residuals": residuals})
        report = {
            "command": "triple",
            "inputs": source,
            "tolerances": _tol_payload(tol),
            "results": {
                "dim": trip.dim,
                "metric_min_eigenvalue": validate_positive(trip.g, tol).min_eigenvalue,
                "residuals": residuals,
                "out": str(out_path),
            },
            "passed": True,
        }
        return report, True

    report, passed = _run(body)
    _emit(report, passed, fmt, quiet)


@main.command()
@click.option("--triple", "triple_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_common_options
def hermitian(triple_path, out_path, tol_eig, tol_resid, fmt, quiet):
    """Hermitian form of a triple in canonical J-adapted coordinates."""
    tol = _tolerances(tol_eig, tol_resid)

    def body():
        trip = load_triple(triple_path, tol)
        cmap = complexification_from_j(trip.j, tol)
        form = hermitian_from_triple(trip, cmap, tol)
        save_matrix(out_path, form.gram, "complex_hermitian")
        w = form.eigenvalues
        report = {
            "command": "hermitian",
            "inputs": {"triple": triple_path},
            "tolerances": _tol_payload(tol),
            "results": {
                "complex_dim": form.dim,
                "min_eigenvalue": float(w[0]),
                "max_eigenvalue": float(w[-1]),
                "out": str(out_path),
            },
            "passed": True,
        }
        return report, True

    report, passed = _run(body)
    _emit(report, passed, fmt, quiet)


@main.command()
@click.option("--h1", "h1_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--h2", "h2_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_common_options
def connect(h1_path, h2_path, out_path, tol_eig, tol_resid, fmt, quiet):
    """Connecting operator G with h2(x, y) = h1(Gx, y)."""
    tol = _tolerances(tol_eig, tol_resid)

    def body():
        h1, h2 = _load_hermitian_pair(h1_path, h2_path, tol)
        op = connecting_operator(h1, h2, tol)
        residuals = op.invariant_residuals()
        passed = invariants_hold(residuals, tol)
        save_matrix(out_path, op.mat, "complex_general", meta={"residuals": residuals})
        report = {
            "command": "connect",
            "inputs": {"h1": h1_path, "h2": h2_path},
            "tolerances": _tol_payload(tol),
            "results": {
                "dim": op.dim,
                "ill_conditioned": op.ill_conditioned,
                "residuals": residuals,
                "out": str(out_path),
            },
            "passed": passed,
        }
        return report, passed

    report, passed = _run(body)
    _emit(report, passed, fmt, quiet)


@main.command()
@click.option("--h1", "h1_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--h2", "h2_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "report_out", type=click.Path(dir_okay=False), help="Write the report here instead of stdout.")
@_common_options
def spectrum(h1_path, h2_path, report_out, tol_eig, tol_resid, fmt, quiet):
    """Clustered spectrum and bi-unitary group signature of a pair."""
    tol = _tolerances(tol_eig, tol_resid)

    def body():
        h1, h2 = _load_hermitian_pair(h1_path, h2_path, tol)
        op = connecting_operator(h1, h2, tol)
        res = spectral_resolution(op, tol)
        report = {
            "command": "spectrum",
            "inputs": {"h1": h1_path, "h2": h2_path},
            "tolerances": _tol_payload(tol),
            "results": {
                "dim": op.dim,
                "eigenvalues": [float(v) for v in res.eigenvalues],
                "multiplicities": list(res.multiplicities),
                "signature": str(group_signature(res)),
                "cluster_gap": res.cluster_gap,
            },
            "passed": True,
        }
        return report, True

    report, passed = _run(body)
    _emit(report, passed, fmt, quiet, report_out)


@main.command()
@click.option("--h1", "h1_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--h2", "h2_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for the cyclicity probe vectors.")
@click.option("--out", "report_out", type=click.Path(dir_okay=False), help="Write the report here instead of stdout.")
@_common_options
def generic(h1_path, h2_path, seed, report_out, tol_eig, tol_resid, fmt, quiet):
    """Genericity verdicts, commutant dimensions and cyclicity."""
    tol = _tolerances(tol_eig, tol_resid)

    def body():
        h1, h2 = _load_hermitian_pair(h1_path, h2_path, tol)
        op = connecting_operator(h1, h2, tol)
        res = spectral_resolution(op, tol)
        by_spectrum = is_generic_by_spectrum(res)
        comm_dim = res.commutant_dimension
        bicomm_dim = bicommutant_dimension(res)
        by_commutant = comm_dim == bicomm_dim
        cyclic = is_cyclic(op, seed=seed, tol=tol)
        agreement = by_spectrum == by_commutant == cyclic
        report = {
            "command": "generic",
            "inputs": {"h1": h1_path, "h2": h2_path},
            "tolerances": _tol_payload(tol),
            "seed": seed,
            "results": {
                "generic_by_spectrum": by_spectrum,
                "generic_by_commutant": by_commutant,
                "cyclic": cyclic,
                "commutant_dimension": comm_dim,
                "bicommutant_dimension": bicomm_dim,
                "signature": str(group_signature(res)),
                "agreement": agreement,
            },
            "passed": agreement,
        }
        return report, agreement

    report, passed = _run(body)
    _emit(report, passed, fmt, quiet, report_out)


@main.command()
@click.option("--h1", "h1_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--h2", "h2_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "report_out", type=click.Path(dir_okay=False), help="Write the report here instead of stdout.")
@_common_options
def decompose(h1_path, h2_path, report_out, tol_eig, tol_resid, fmt, quiet):
    """Fibered decomposition, proportionality and dimension checks."""
    tol = _tolerances(tol_eig, tol_resid)

    def body():
        h1, h2 = _load_hermitian_pair(h1_path, h2_path, tol)
        op = connecting_operator(h1, h2, tol)
        dec = build_decomposition(op, tol)
        prop = check_proportionality(dec, h1, h2, tol)
        unidim = check_genericity_consistency(dec, op, tol)
        passed = prop.passed
        report = {
            "command": "decompose",
            "inputs": {"h1": h1_path, "h2": h2_path},
            "tolerances": _tol_payload(tol),
            "results": {
                "fibers": [
                    {"eigenvalue": f.eigenvalue, "weight": f.weight, "dim": f.dim}
                    for f in dec.fibers
                ],
                "segments": {str(k): list(v) for k, v in dec.segments.items()},
                "proportionality": {
                    "max_violation": list(prop.max_violation),
                    "passed": prop.passed,
                },
                "all_fibers_unidimensional": unidim,
            },
            "passed": passed,
        }
        return report, passed

    report, passed = _run(body)
    _emit(report, passed, fmt, quiet, report_out)


@main.command(name="sample-u")
@click.option("--h1", "h1_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--h2", "h2_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_common_options
def sample_u(h1_path, h2_path, seed, out_path, tol_eig, tol_resid, fmt, quiet):
    """Sample a random bi-unitary transformation of a pair."""
    tol = _tolerances(tol_eig, tol_resid)

    def body():
        h1, h2 = _load_hermitian_pair(h1_path, h2_path, tol)
        op = connecting_operator(h1, h2, tol)
        dec = build_decomposition(op, tol)
        u = sample_biunitary(dec, seed)
        rep = verify_biunitary(u, h1, h2, tol, connecting=op)
        save_matrix(out_path, u, "complex_general")
        report = {
            "command": "sample-u",
            "inputs": {"h1": h1_path, "h2": h2_path},
            "tolerances": _tol_payload(tol),
            "seed": seed,
            "results": {
                "dim": op.dim,
                "block_dims": [f.dim for f in dec.fibers],
                "residual_h1": rep.residual_h1,
                "residual_h2": rep.residual_h2,
                "residual_commutator": rep.residual_commutator,
                "out": str(out_path),
            },
            "passed": rep.passed,
        }
        return report, rep.passed

    report, passed = _run(body)
    _emit(report, passed, fmt, quiet)


@main.command(name="verify-u")
@click.option("--u", "u_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--h1", "h1_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--h2", "h2_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "report_out", type=click.Path(dir_okay=False), help="Write the report here instead of stdout.")
@_common_options
def verify_u(u_path, h1_path, h2_path, report_out, tol_eig, tol_resid, fmt, quiet):
    """Check whether a transformation preserves both forms."""
    tol = _tolerances(tol_eig, tol_resid)

    def body():
        _, u = load_matrix(u_path, ("complex_general", "complex_hermitian"), tol)
        h1, h2 = _load_hermitian_pair(h1_path, h2_path, tol)
        rep = verify_biunitary(u, h1, h2, tol)
        report = {
            "command": "verify-u",
            "inputs": {"u": u_path, "h1": h1_path, "h2": h2_path},
            "tolerances": _tol_payload(tol),
            "results": {
                "residual_h1": rep.residual_h1,
                "residual_h2": rep.residual_h2,
                "residual_commutator": rep.residual_commutator,
                "h1_ok": rep.h1_ok,
                "h2_ok": rep.h2_ok,
                "commutator_ok": rep.commutator_ok,
                "implication_ok": rep.implication_ok,
            },
            "passed": rep.passed,
        }
        return report, rep.passed

    report, passed = _run(body)
    _emit(report, passed, fmt, quiet, report_out)


if __name__ == "__main__":
    main()
