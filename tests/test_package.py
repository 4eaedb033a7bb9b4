"""The package namespace: what ``import biherm`` exposes, and the README example that uses it."""

import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import biherm
from biherm import AdmissibleTriple, ConnectingOperator, SpectralResolution

# The six re-exported modules and their public names, as of version 0.1.0.
PUBLIC_NAMES = [
    'AdmissibleTriple', 'BiUnitaryReport', 'BihermError', 'ComplexStructureJ',
    'ComplexificationMap', 'ConnectingOperator', 'DEFAULT_TOLERANCES', 'DecomposableOperator',
    'DegenerateSpectrumError', 'DegenerateSymplecticError', 'DimensionMismatchError', 'Fiber',
    'FileFormatError', 'GroupSignature', 'HermitianForm', 'InternalInconsistencyError',
    'NonFiniteError', 'NotAdmissibleError', 'NotGenericError',
    'NotInCommutantError', 'NotSkewError', 'ProportionalityReport',
    'RealForm', 'ScalarBlockReport', 'SingularMetricError', 'SpectralResolution', 'Tolerances',
    'ZeroCoefficientError', 'ZeroVectorError', 'bicommutant_dimension',
    'build_complexification', 'build_decomposition', 'check_bicommutant_scalar',
    'check_genericity_consistency', 'check_proportionality', 'commutant_dimension',
    'complexification_from_j', 'connecting', 'connecting_operator', 'cyclic_vector',
    'decomposition', 'errors', 'forms', 'group_signature',
    'hermitian_from_triple', 'invariants_hold', 'is_cyclic', 'is_generic_by_commutant',
    'is_generic_by_spectrum', 'krylov_rank', 'omega_from_g_j',
    'phase_biunitary', 'project_to_commutant_blocks', 'sample_biunitary', 'spectral',
    'spectral_resolution', 'symmetrize_metric', 'triple_from_g_j',
    'triple_from_g_omega', 'triples', 'verify_biunitary',
]


def test_public_names():
    # A fresh interpreter, because a test that imports biherm.cli or
    # biherm.matrixio binds more submodules on the package.
    env = dict(os.environ, PYTHONPATH=str(Path(biherm.__file__).parents[1]))
    code = "import biherm; print(*sorted(n for n in dir(biherm) if not n.startswith('_')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 61


def test_readme_library_example_prints_what_its_comments_say():
    # the block under "## Library example", run as written; each print's
    # comment starts with the line it prints
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("# ", 1)[1].split(":")[0].strip() for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["U(2)×U(1)", "False", "True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


# Tolerances enter where forms, triples and the connecting operator are
# built, and where files are read; every later stage reads its triple's or
# its operator's.
TOL_ENTRY_POINTS = {
    "RealForm", "ComplexStructureJ", "HermitianForm", "krylov_rank",
    "AdmissibleTriple", "symmetrize_metric", "omega_from_g_j", "triple_from_g_j", "triple_from_g_omega",
    "complexification_from_j",
    "ConnectingOperator", "connecting_operator", "invariants_hold", "verify_biunitary",
    "load_matrix", "load_triple",
}


def _public_signatures():
    """(module, name, signature) of every public callable in each module's ``__all__``."""
    for info in pkgutil.iter_modules(biherm.__path__):
        module = importlib.import_module(f"biherm.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if callable(obj):
                yield info.name, name, inspect.signature(obj, eval_str=True)


def test_only_the_entry_points_take_a_tolerance():
    signatures = list(_public_signatures())
    assert {m for m, _, _ in signatures} >= {"connecting", "decomposition", "forms", "matrixio", "spectral", "triples"}
    assert {name for _, name, sig in signatures if "tol" in sig.parameters} == TOL_ENTRY_POINTS
    # a stage that requires a triple, an operator or a resolution reads its tolerances
    triple_stages = set()
    for _, name, sig in signatures:
        required = [p.annotation for p in sig.parameters.values() if p.default is inspect.Parameter.empty]
        if AdmissibleTriple in required:
            triple_stages.add(name)
        if AdmissibleTriple in required or ConnectingOperator in required or SpectralResolution in required:
            assert "tol" not in sig.parameters, name
    assert triple_stages == {"build_complexification", "hermitian_from_triple", "save_triple"}
