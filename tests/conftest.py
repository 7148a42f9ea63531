"""Shared fixtures: the worked example tensors used across the suite, and
a runner for scripts at numpy's baseline CPU dispatch."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tensorbit
from tensorbit import SymTensor222, Tensor222

# random G2-side tensor: 6 real stationary points, global psi 2.6863,
# residual pencil double eigenvalue 0.9185
EXAMPLE_A1 = (-0.4326, 0.1253, -1.6656, 0.2877, -1.1465, 1.1892, 1.1909, -0.0376)

# random G3-side tensor: 4 real stationary points, global psi 3.1185,
# residual pencil double eigenvalue 1.6712
EXAMPLE_A2 = (-1.6041, -1.0565, 0.2573, 1.4151, 0.8156, 1.2902, 0.7119, 0.6686)

# reference stationary-point tables for the two tensors above:
# (y2, z2, psi, hessian_pd, degenerate)
TABLE_A1 = (
    (-0.592958, 0.621735, 5.1164, False, False),
    (-0.229249, -1.08855, 2.6863, True, False),
    (2.22613, 0.452035, 7.1313, False, False),
    (2.42488, -2.88759, 6.5289, False, False),
    (1.17156, 1.15843, 7.2081, False, True),
    (5.96728, -0.05296, 7.2081, False, True),
)
TABLE_A2 = (
    (0.995675, -0.598339, 3.1185, True, False),
    (-0.865475, 0.0601889, 8.2319, False, False),
    (2.06437, 1.78102, 6.6050, False, False),
    (-0.675154, 9.24487, 9.0028, False, False),
)

# orthogonal-slab-pencil tensor with infinitely many best approximations
KHL = (1.0, 0.0, 0.0, 1.0, 0.0, -1.0, 1.0, 0.0)

# worked deflations: tensor, expected residual
WORKED_G2 = ((0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 2.0),
             (0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0))
WORKED_G3 = ((1.0, 0.0, 0.0, 1.0, 0.0, -2.0, 1.0, 0.0),
             (1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0))

# boundary-orbit tensors whose deflation drops to the three D2 variants
BOUNDARY_TO_D2 = (
    ((2.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0), "D2"),
    ((1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0), "D2p"),
    ((1.0, 0.0, 0.0, 0.0, 0.0, 2.0, 1.0, 0.0), "D2pp"),
)

SYM_G3 = (0.0, 1.0, 1.0, 0.0)      # optimum y1 = y2 = (3/4)^(1/3), psi 3/2
SYM_G2 = (3.0, 1.0, 1.0, 3.0)      # optimum y = (3/2)^(1/3) ones, psi 6


@pytest.fixture
def ex_a1():
    return Tensor222.from_flat(EXAMPLE_A1)


@pytest.fixture
def ex_a2():
    return Tensor222.from_flat(EXAMPLE_A2)


@pytest.fixture
def khl():
    return Tensor222.from_flat(KHL)


@pytest.fixture
def sym_g3():
    return SymTensor222(*SYM_G3)


@pytest.fixture
def sym_g2():
    return SymTensor222(*SYM_G2)


def random_tensor(seed: int) -> Tensor222:
    rng = np.random.default_rng(seed)
    return Tensor222.from_flat(rng.standard_normal(8))


def random_sym(seed: int) -> SymTensor222:
    rng = np.random.default_rng(seed)
    return SymTensor222(*rng.standard_normal(4))


# numpy's x86-64-v2 kernels: every dispatch target above its baseline switched off
BASELINE_DISPATCH = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def run_at_baseline_dispatch(script: str) -> str:
    """The stdout of the Python ``script``, run on this checkout's tensorbit in
    a subprocess with NPY_DISABLE_CPU_FEATURES=BASELINE_DISPATCH; skips the
    test where numpy refuses that setting."""
    src = str(Path(tensorbit.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=BASELINE_DISPATCH,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode and "You cannot disable CPU feature" in proc.stderr:
        pytest.skip("numpy refuses NPY_DISABLE_CPU_FEATURES=" + BASELINE_DISPATCH)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
