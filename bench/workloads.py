"""The three benchmark workloads: their inputs, ops and ground-truth checks.

A workload is a sequence of rounds; a round is a fixed mix of ops, so
every run measures the same mix whatever the seed, and runs stop only at
round boundaries.  An op returns an :class:`Outcome`; it fails when it raises,
when a CLI command exits with an unexpected code, or when a verdict
disagrees with the generator's ground truth.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

# The library workloads draw fresh inputs for every round from (seed, round),
# so one run averages over many pairs.  At n = 128 krylov_rank stops short
# on a varying share of the degenerate pairs, each of which then costs three
# Krylov trials; from a small fixed pool that share, and with it the tail,
# would follow the seed.  The inputs hash covers the first DIGEST_ROUNDS.
DIGEST_ROUNDS = 2


@dataclass(frozen=True)
class Outcome:
    ok: bool
    error_class: str | None = None
    failing_checks: tuple[str, ...] = ()


@dataclass(frozen=True)
class Op:
    """One op of a round; ``label`` groups latencies (n or CLI command)."""

    case_id: str
    label: str
    run: Callable[[], Outcome] = field(repr=False)


@dataclass
class Workload:
    name: str
    round_ops: Callable[[int], list[Op]]  # the ops of round r, in order
    inputs_digest: str
    report_digest: Callable[[], str | None] = lambda: None


def _failure(stage: str, exc: BaseException) -> Outcome:
    return Outcome(False, type(exc).__name__, (stage,))


def _outcome(bad: list[str]) -> Outcome:
    return Outcome(not bad, "WrongVerdict" if bad else None, tuple(bad))


# --- library pair analysis -------------------------------------------------


def pair_op(biherm, case: inputs.PairCase, seed: int, commutant: bool) -> Outcome:
    """One pair analysis of ``corpus_small`` and ``pairs_large``, checked.

    With ``commutant`` false the two calls that build the n^2 x n^2
    commutator map (``is_generic_by_commutant`` and
    ``check_genericity_consistency``) are left out.
    """
    bad: list[str] = []
    stage = "forms"
    try:
        h1 = biherm.HermitianForm(case.h1)
        h2 = biherm.HermitianForm(case.h2)
        stage = "connecting_operator"
        op = biherm.connecting_operator(h1, h2)
        stage = "spectral_resolution"
        res = biherm.spectral_resolution(op)
        if res.multiplicities != case.multiplicities:
            bad.append("signature")
        stage = "is_generic_by_spectrum"
        if biherm.is_generic_by_spectrum(res) != case.generic:
            bad.append("generic_by_spectrum")
        if commutant:
            stage = "is_generic_by_commutant"
            if biherm.is_generic_by_commutant(op, resolution=res) != case.generic:
                bad.append("generic_by_commutant")
        stage = "is_cyclic"
        if biherm.is_cyclic(op, seed=seed) != case.generic:
            bad.append("cyclic")
        stage = "build_decomposition"
        dec = biherm.build_decomposition(op, resolution=res)
        stage = "check_proportionality"
        if not biherm.check_proportionality(dec, h1, h2).passed:
            bad.append("proportionality")
        if commutant:
            stage = "check_genericity_consistency"
            if biherm.check_genericity_consistency(dec, op) != case.generic:
                bad.append("genericity_consistency")
        stage = "sample_biunitary"
        u = biherm.sample_biunitary(dec, seed)
        stage = "verify_biunitary"
        rep = biherm.verify_biunitary(u, h1, h2, connecting=op)
        if not (rep.passed and rep.implication_ok):
            bad.append("verify_biunitary")
    except Exception as exc:  # the op boundary: count it and keep running
        return _failure(stage, exc)
    return _outcome(bad)


@dataclass(frozen=True)
class Sizes:
    corpus_ns: tuple[int, ...]  # one round; BORDERLINE marks the borderline slot
    large_n: int
    large_round: tuple[bool, ...]  # degenerate flag per pair of a round
    cli_n: int
    cli_small_n: int


BORDERLINE = -1
FULL = Sizes(
    # the median falls inside the n=16 pair of slots and the tail inside
    # the n=24 pair, so neither sits on a boundary between sizes
    corpus_ns=(8, 10, 12, 14, 16, BORDERLINE, 18, 20, 22, 24, 24),
    large_n=128,
    large_round=(False, True, False, True),
    cli_n=128,
    cli_small_n=12,
)
TINY = Sizes(
    corpus_ns=(4, 5, BORDERLINE, 6),
    large_n=8,
    large_round=(False, True),
    cli_n=3,
    cli_small_n=3,
)
BORDERLINE_N = 16


def _corpus_round(biherm, seed: int, sizes: Sizes, r: int):
    rng = np.random.default_rng([seed, 1, r])
    ops, arrays = [], []
    for i in rng.permutation(len(sizes.corpus_ns)):
        n = sizes.corpus_ns[i]
        if n == BORDERLINE:
            n = min(BORDERLINE_N, max(sizes.corpus_ns))
            case = inputs.borderline_pair(rng, str(i), n, "ab"[r % 2])
        else:
            kappa = inputs.log_uniform(rng, 1.0, inputs.KAPPA_MAX)
            case = inputs.normal_pair(rng, str(i), n, bool(i % 2), kappa)
        arrays += [case.h1, case.h2]
        ops.append(Op(str(i), str(case.n), _bind(pair_op, biherm, case, int(i), True)))
    return ops, arrays


def _large_round(biherm, seed: int, sizes: Sizes, r: int):
    rng = np.random.default_rng([seed, 2, r])
    ops, arrays = [], []
    for i in rng.permutation(len(sizes.large_round)):
        degenerate = sizes.large_round[i]
        kappa = inputs.log_uniform(rng, 1.0, inputs.KAPPA_MAX)
        case = inputs.normal_pair(rng, str(i), sizes.large_n, degenerate, kappa)
        arrays += [case.h1, case.h2]
        label = "degenerate" if degenerate else "simple"
        ops.append(Op(str(i), label, _bind(pair_op, biherm, case, int(i), False)))
    return ops, arrays


def _library(name: str, make_round, biherm, seed: int, sizes: Sizes) -> Workload:
    arrays = [a for r in range(DIGEST_ROUNDS) for a in make_round(biherm, seed, sizes, r)[1]]
    return Workload(name, lambda r: make_round(biherm, seed, sizes, r)[0], inputs.digest_arrays(arrays))


def corpus_small(biherm, seed: int, sizes: Sizes = FULL, workdir: Path | None = None) -> Workload:
    """Many small pairs, each analysed by the full chain with the commutant route."""
    return _library("corpus_small", _corpus_round, biherm, seed, sizes)


def pairs_large(biherm, seed: int, sizes: Sizes = FULL, workdir: Path | None = None) -> Workload:
    """Large pairs, half simple and half degenerate, without the commutant route."""
    return _library("pairs_large", _large_round, biherm, seed, sizes)


def _bind(fn, *args):
    return lambda: fn(*args)


# --- CLI session -----------------------------------------------------------

# Two input sets alternate, so every later session repeats an earlier one
# and its reports must come out byte-identical.
CLI_INPUT_SETS = 2


def _signature(mults) -> str:
    return "×".join(f"U({k})" for k in mults)


def _session_commands(d: str) -> list[tuple[str, list[str]]]:
    """(check name, argv) for the session flow on input directory ``d``."""
    f = lambda name: f"{d}/{name}.json"  # noqa: E731 - workload-relative paths
    pair = ["--h1", f("h1"), "--h2", f("h2")]
    small = ["--h1", f("hs1"), "--h2", f("hs2")]
    return [
        ("triple_j", ["triple", "--g", f("g1"), "--j", f("j"), "--out", f("t1")]),
        ("triple_omega", ["triple", "--g", f("g2"), "--omega", f("omega"), "--out", f("t2")]),
        ("hermitian_1", ["hermitian", "--triple", f("t1"), "--out", f("h1")]),
        ("hermitian_2", ["hermitian", "--triple", f("t2"), "--out", f("h2")]),
        ("connect", ["connect", *pair, "--out", f("G")]),
        ("spectrum", ["spectrum", *pair]),
        # the text renderer; an odd op count also keeps the median op inside
        # one block of similar commands rather than between two
        ("spectrum_text", ["spectrum", *pair, "--format", "text"]),
        ("sample_u", ["sample-u", *pair, "--seed", "7", "--out", f("U")]),
        ("verify_u", ["verify-u", "--u", f("U"), *pair]),
        ("generic", ["generic", *small]),
        ("decompose", ["decompose", *small]),
    ]


def _results(report: str, text: bool) -> dict:
    """The ``results`` section of a JSON report, or of a text report's
    ``results.<key> = <value>`` lines, values parsed as JSON where they are."""
    if not text:
        return json.loads(report).get("results", {})
    out = {}
    for line in report.splitlines():
        path, _, value = line.partition(" = ")
        if path.startswith("results."):
            try:
                out[path[len("results."):]] = json.loads(value)
            except ValueError:
                out[path[len("results."):]] = value
    return out


def _check_report(check: str, res: dict, session: inputs.RealSession) -> list[str]:
    """Verdict checks on a report whose command exited 0 as expected."""
    bad = []
    if check == "connect" and res.get("ill_conditioned"):
        bad.append("ill_conditioned")
    elif check in ("spectrum", "spectrum_text"):
        if res.get("multiplicities") != list(session.large_multiplicities):
            bad.append("signature")
        if res.get("signature") != _signature(session.large_multiplicities):
            bad.append("signature_text")
    elif check == "verify_u":
        if not all(res.get(k) for k in ("h1_ok", "h2_ok", "commutator_ok", "implication_ok")):
            bad.append("verify_biunitary")
    elif check == "generic":
        small = session.small
        for key in ("generic_by_spectrum", "generic_by_commutant", "cyclic"):
            if res.get(key) != small.generic:
                bad.append(key)
        if res.get("signature") != _signature(small.multiplicities):
            bad.append("signature")
    elif check == "decompose":
        small = session.small
        if [f["dim"] for f in res.get("fibers", [])] != list(small.multiplicities):
            bad.append("fiber_dims")
        if not res.get("proportionality", {}).get("passed"):
            bad.append("proportionality")
        if res.get("all_fibers_unidimensional") != small.generic:
            bad.append("unidimensional")
    return bad


class CliSession:
    """Runs the session flow in-process through click, from ``workdir``.

    Report paths are relative to ``workdir``, so report bytes (and their
    digest) compare across runs and checkouts.
    """

    def __init__(self, biherm, seed: int, sizes: Sizes, workdir: Path):
        from click.testing import CliRunner

        import biherm.cli

        self.main = biherm.cli.main
        self.runner = CliRunner()
        self.workdir = workdir
        self.first_report: dict[tuple[int, str], str] = {}
        rng = np.random.default_rng([seed, 3])
        self.sessions = []
        arrays = []
        workdir.mkdir(parents=True, exist_ok=True)
        for s in range(CLI_INPUT_SETS):
            sess = inputs.real_session(rng, sizes.cli_n, sizes.cli_small_n)
            d = workdir / f"s{s}"
            d.mkdir(exist_ok=True)
            files = {
                "g1": (sess.g1, "real_symmetric"),
                "j": (sess.j, "real_general"),
                "g2": (sess.g2, "real_symmetric"),
                "omega": (sess.omega, "real_antisymmetric"),
                "hs1": (sess.small.h1, "complex_hermitian"),
                "hs2": (sess.small.h2, "complex_hermitian"),
            }
            for name, (mat, kind) in files.items():
                (d / f"{name}.json").write_text(inputs.matrix_file_text(mat, kind), encoding="utf-8")
                arrays.append(mat)
            self.sessions.append(sess)
        self.inputs_digest = inputs.digest_arrays(arrays)

    def command(self, s: int, check: str, argv: list[str]) -> Outcome:
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            result = self.runner.invoke(self.main, argv)
        finally:
            os.chdir(cwd)
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            return Outcome(False, type(result.exception).__name__, (check,))
        if result.exit_code != 0:
            return Outcome(False, f"ExitCode{result.exit_code}", (check,))
        out = result.stdout
        key = (s, check)
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        first = self.first_report.setdefault(key, digest)
        bad = [] if first == digest else ["report_not_byte_identical"]
        try:
            bad += _check_report(check, _results(out, "text" in argv), self.sessions[s])
        except ValueError:
            bad.append("report_unreadable")
        return _outcome(bad)

    def report_digest(self) -> str:
        """SHA-256 over each input set's first session reports, in flow order."""
        h = hashlib.sha256()
        for key in sorted(self.first_report):
            h.update(repr(key).encode())
            h.update(self.first_report[key].encode())
        return h.hexdigest()


def cli_session(biherm, seed: int, sizes: Sizes = FULL, workdir: Path | None = None) -> Workload:
    """The file flow through the click entry point, one op per command."""
    if workdir is None:
        raise ValueError("cli_session needs a work directory inside the checkout")
    cli = CliSession(biherm, seed, sizes, workdir)
    sessions = [
        [Op(f"s{s}.{check}", argv[0], _bind(cli.command, s, check, argv)) for check, argv in _session_commands(f"s{s}")]
        for s in range(CLI_INPUT_SETS)
    ]
    return Workload("cli_session", lambda r: sessions[r % CLI_INPUT_SETS], cli.inputs_digest, cli.report_digest)


WORKLOADS = {
    "corpus_small": corpus_small,
    "pairs_large": pairs_large,
    "cli_session": cli_session,
}

