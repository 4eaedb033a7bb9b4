"""The package namespace: what ``import biherm`` exposes."""

import os
import subprocess
import sys
from pathlib import Path

import biherm

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
