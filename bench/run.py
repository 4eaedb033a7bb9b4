"""biherm benchmark: one closed-loop workload per run, checked against ground truth.

Run from the root of a checkout:

    python3 bench/run.py --workload corpus_small --seed 1 --seconds 20 --trace 0

One caller issues each op after the previous one has finished; BLAS is
pinned to one thread and no other threads run.  Inputs come from the seed
alone (see ``inputs.py``); the library only receives the generated
matrices or files.  ``--trace 0`` prints the end-to-end metrics and
installs no wrappers; ``--trace 1`` runs the same rounds untraced and then
traced, and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``README.md`` beside this file for why
each workload and metric was chosen.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5  # timed fresh-interpreter imports per run, after one warm-up
# This machine's speed drifts by up to 1.8x for seconds at a time, more for
# JSON-heavy interpreter code than for LAPACK calls.  Calibration kernels
# are therefore timed at least every CAL_INTERVAL_S between ops, and every
# time is reported scaled to the reference speed: the speed at which each
# kernel takes CAL_REF_S (2-core x86 box, OpenBLAS 0.3.31 on one thread,
# fast state).  Each workload uses the kernels that resemble its own work.
CAL_INTERVAL_S = 0.05
CAL_REF_S = {"python": 0.60e-3, "matmul": 0.36e-3, "json": 1.86e-3, "eig": 0.29e-3}
CAL_KERNELS = {
    "corpus_small": ("python", "matmul", "eig"),
    "pairs_large": ("python", "matmul", "json", "eig"),
    "cli_session": ("json",),
    "setup": ("python", "matmul", "json", "eig"),
}
# Op time of one round at the reference speed.  A run covers a fixed number
# of rounds, --seconds over this, so the same seed and --seconds always
# attempt the same ops and fail the same ones, whatever the machine's speed.
ROUND_REF_S = {"corpus_small": 0.93, "pairs_large": 0.42, "cli_session": 2.7}
CLI_COMMANDS = ("triple", "hermitian", "connect", "spectrum", "generic", "decompose", "sample-u", "verify-u")


@dataclass(frozen=True)
class Record:
    op_id: str
    label: str
    raw_s: float
    seconds: float  # raw_s scaled to the reference speed
    outcome: object


class SpeedProbe:
    """Times fixed Python, JSON and BLAS kernels to track the machine's speed."""

    def __init__(self, kernels: tuple[str, ...]):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.random((128, 128))
        h = rng.random((80, 80))
        self._h = h + h.T
        self._text = json.dumps([[float(x), float(x) / 3] for x in rng.random(3000)])
        self._kernels = kernels
        self.last = 0.0

    def _python(self):
        s = 0
        for i in range(10000):
            s += i * i

    def _matmul(self):
        for _ in range(4):
            self._a @ self._a

    def _json(self):
        json.loads(self._text)

    def _eig(self):
        import numpy as np

        np.linalg.eigvalsh(self._h)

    def sample(self) -> float:
        """Mean slowdown of the kernels against the reference speed (1.0)."""
        total = 0.0
        for name in self._kernels:
            kernel = getattr(self, f"_{name}")
            best = float("inf")
            for _ in range(3):
                t0 = perf_counter()
                kernel()
                best = min(best, perf_counter() - t0)
            total += best / CAL_REF_S[name]
        self.last = perf_counter()
        return total / len(self._kernels)


def load_biherm():
    """Import biherm from this checkout's ``src`` and nowhere else."""
    if not (SRC / "biherm" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'biherm'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import biherm

    if SRC not in Path(biherm.__file__).resolve().parents:
        raise SystemExit(f"error: imported biherm from {biherm.__file__}, not from {SRC}")
    return biherm


def measure_setup(probe: SpeedProbe) -> tuple[float, float]:
    """Median time for a fresh interpreter to import biherm and biherm.cli.

    Returns (scaled, raw) seconds.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import biherm, biherm.cli"]
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        before = probe.sample()
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        dt = perf_counter() - t0
        if i:  # the first run also writes bytecode caches
            raw.append(dt)
            scaled.append(dt * 2 / (before + probe.sample()))
    return statistics.median(scaled), statistics.median(raw)


def rounds_for(workload_name: str, seconds: float) -> int:
    """Rounds that take about ``seconds`` of op time at the reference speed."""
    return max(1, round(seconds / ROUND_REF_S[workload_name]))


def run_rounds(workload, n_rounds: int, probe: SpeedProbe | None = None):
    """Closed loop over ``n_rounds`` whole rounds.

    Each op's time is scaled by the mean of the speed samples taken just
    before and just after it.  Returns the records and the scaled and raw
    sums of op times.
    """
    probe = probe or SpeedProbe(CAL_KERNELS[workload.name])
    samples = [probe.sample()]
    timed = []  # (op id, label, raw seconds, outcome, index of the sample before)
    for r in range(n_rounds):
        for op in workload.round_ops(r):
            if perf_counter() - probe.last >= CAL_INTERVAL_S:
                samples.append(probe.sample())
            t0 = perf_counter()
            outcome = op.run()
            dt = perf_counter() - t0
            timed.append((f"{r}:{op.case_id}", op.label, dt, outcome, len(samples) - 1))
    samples.append(probe.sample())
    records = [
        Record(op_id, label, raw, raw * 2 / (samples[i] + samples[i + 1]), outcome)
        for op_id, label, raw, outcome, i in timed
    ]
    return records, sum(rec.seconds for rec in records), sum(rec.raw_s for rec in records)


def latency_summary(seconds: list[float]) -> dict:
    """Median and the highest percentile with at least ten ops beyond it."""
    s = sorted(seconds)
    n = len(s)
    tail_index = n - 11 if n > 10 else n - 1
    return {
        "ops": n,
        "p50_s": statistics.median(s),
        "tail_s": s[tail_index],
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "ops_beyond_tail": n - 1 - tail_index,
    }


def failures(records, workload_name: str) -> list[dict]:
    return [
        {
            "op_id": rec.op_id,
            "workload": workload_name,
            "error_class": rec.outcome.error_class,
            "failing_check": rec.outcome.failing_checks[0],
            "failing_checks": list(rec.outcome.failing_checks),
        }
        for rec in records
        if not rec.outcome.ok
    ]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("openblas configuration", blas.get("version")),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def end_to_end(records, busy_s: float, setup_s: float) -> dict:
    lat = latency_summary([r.seconds for r in records])
    return {
        "ops_per_s": (len(records) / busy_s, "1/s"),
        "op_p50_ms": (1e3 * lat["p50_s"], "ms"),
        "op_tail_ms": (1e3 * lat["tail_s"], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, records_untraced, busy_untraced: float, records_traced, busy_traced: float, speed: float) -> dict:
    """Per-layer metrics of the traced pass; ``speed`` scales its span times."""
    n_ops = len(records_traced)
    wall = busy_traced / speed  # raw, like the span times
    out = {}
    for layer, st in tracer.layer_totals().items():
        out[f"{layer}.calls_per_op"] = (st.calls / n_ops, "count")
        out[f"{layer}.self_ms_per_op"] = (1e3 * speed * st.self_s / n_ops, "ms")
        out[f"{layer}.share"] = (st.self_s / wall, "ratio")
        out[f"{layer}.errors"] = (st.errors, "count")

    def ms_per_op(*names):
        return (1e3 * speed * sum(tracer.get(n).total_s for n in names) / n_ops, "ms")

    def calls_per_op(name):
        return (tracer.get(name).calls / n_ops, "count")

    out["spectral.commutant_dimension.ms_per_op"] = ms_per_op("spectral.commutant_dimension")
    out["spectral.commutant_dimension.calls_per_op"] = calls_per_op("spectral.commutant_dimension")
    out["spectral.commutant_map_mb_per_op"] = (tracer.commutant_map_bytes / 2**20 / n_ops, "MB")
    out["spectral.spectral_resolution.calls_per_op"] = calls_per_op("spectral.spectral_resolution")
    out["spectral.is_cyclic.ms_per_op"] = ms_per_op("spectral.is_cyclic")
    out["connecting.connecting_operator.ms_per_op"] = ms_per_op("connecting.connecting_operator")
    out["connecting.verify_biunitary.ms_per_op"] = ms_per_op("connecting.verify_biunitary")
    for category in ("eig", "cholesky", "solve", "svd", "qr"):
        out[f"lapack.{category}_per_op"] = (tracer.lapack[category] / n_ops, "count")
    out["triples.complexification_from_j.ms_per_op"] = ms_per_op("triples.complexification_from_j")
    out["triples.triple_from_g_omega.ms_per_op"] = ms_per_op("triples.triple_from_g_omega")

    mb_read = tracer.bytes_read / 2**20
    mb_written = tracer.bytes_written / 2**20
    load_ms = ms_per_op("matrixio.load_matrix", "matrixio.load_triple")[0] * n_ops
    save_ms = ms_per_op("matrixio.save_matrix", "matrixio.save_triple")[0] * n_ops
    out["matrixio.load_ms_per_mb"] = (load_ms / mb_read if mb_read else 0.0, "ms/MB")
    out["matrixio.save_ms_per_mb"] = (save_ms / mb_written if mb_written else 0.0, "ms/MB")
    out["matrixio.mb_read_per_op"] = (mb_read / n_ops, "MB")
    out["matrixio.mb_written_per_op"] = (mb_written / n_ops, "MB")
    out["report.render_ms_per_op"] = ms_per_op("report.render_report")

    by_command: dict[str, list[float]] = {}
    for rec in records_untraced:
        by_command.setdefault(rec.label, []).append(rec.seconds)
    for command in CLI_COMMANDS:
        times = by_command.get(command)
        out[f"cli.{command}.p50_ms"] = (1e3 * statistics.median(times) if times else 0.0, "ms")
    out["trace.overhead_share"] = (busy_traced / busy_untraced - 1.0, "ratio")
    return out


def top_spans(tracer, wall: float, k: int = 8) -> list[dict]:
    ranked = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)[:k]
    return [
        {"span": name, "self_share": st.self_s / wall, "total_share": st.total_s / wall, "calls": st.calls}
        for name, st in ranked
    ]


def untraced_run(workload, rounds: int, probe: SpeedProbe, setup: tuple[float, float]) -> dict:
    records, busy, busy_raw = run_rounds(workload, rounds, probe=probe)
    raw_lat = latency_summary([r.raw_s for r in records])
    return {
        "records": records,
        "rounds": rounds,
        "metrics": end_to_end(records, busy, setup[0]),
        "correct": True,
        "notes": {
            "busy_s": busy,
            "unscaled": {
                "ops_per_s": len(records) / busy_raw,
                "op_p50_ms": 1e3 * raw_lat["p50_s"],
                "op_tail_ms": 1e3 * raw_lat["tail_s"],
                "setup_s": setup[1],
            },
        },
    }


def traced_run(workload, rounds: int, probe: SpeedProbe) -> dict:
    """The same rounds untraced, then traced; outcomes must match op for op."""
    from spans import Tracer

    records_u, busy_u, _ = run_rounds(workload, rounds, probe=probe)
    tracer = Tracer()
    tracer.install()
    try:
        records_t, busy_t, raw_t = run_rounds(workload, rounds, probe=probe)
    finally:
        tracer.uninstall()
    same = [a.outcome == b.outcome for a, b in zip(records_u, records_t)]
    wall_t = raw_t  # span times are raw
    return {
        "records": records_u + records_t,
        "rounds": 2 * rounds,
        "metrics": per_layer(tracer, records_u, busy_u, records_t, busy_t, busy_t / raw_t),
        "correct": all(same) and len(records_u) == len(records_t),
        "notes": {
            "busy_s": {"untraced": busy_u, "traced": busy_t},
            "outcomes_match": all(same),
            "layer_share": {k: st.self_s / wall_t for k, st in tracer.layer_totals().items()},
            "top_spans": top_spans(tracer, wall_t),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny input sizes (self-test)")
    args = parser.parse_args(argv)

    biherm = load_biherm()
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    sizes = workloads.TINY if args.tiny else workloads.FULL

    # one core for this process and its children, so the speed samples and
    # the timed code, the setup imports included, run on the same clock
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = SpeedProbe(CAL_KERNELS[args.workload])
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup = None if args.trace else measure_setup(SpeedProbe(CAL_KERNELS["setup"]))
        workload = build(biherm, args.seed, sizes, workdir / "run")
        # warm-up, untimed: the first round loads every code path and grows
        # the heap to its working size
        run_rounds(workload, 1, probe=probe)
        if args.trace:
            # half the rounds each, so the traced run takes about as long
            result = traced_run(workload, rounds_for(args.workload, args.seconds / 2), probe)
        else:
            result = untraced_run(workload, rounds_for(args.workload, args.seconds), probe, setup)
        report_digest = workload.report_digest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    records = result["records"]
    failed = failures(records, args.workload)
    lat = latency_summary([r.seconds for r in records])
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "inputs_sha256": workload.inputs_digest,
        "rounds": result["rounds"],
        "latency": {k: lat[k] for k in ("ops", "tail_percentile", "ops_beyond_tail")},
        "fail_share": len(failed) / len(records),
        "failed_ops": failed,
        **result["notes"],
    }
    if report_digest is not None:
        detail["reports_sha256"] = report_digest
    correct = result["correct"] and not any(f["failing_check"] == "report_not_byte_identical" for f in failed)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
