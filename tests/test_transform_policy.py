"""Static guard on the transform policy.

scipy.fft transforms run only in ``sqglab/grid.py``, and every call passes
``workers=_FFT_WORKERS``: so ``SQGLAB_FFT_WORKERS`` is the one worker
setting, and the plane counters that wrap scipy.fft (``conftest`` and the
benchmark's tracer) see every transform.  numpy.fft has no worker argument,
so none of its transforms may be called at all.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sqglab"
HOME = "grid.py"
FFT_MODULES = {"scipy.fft", "scipy.fftpack", "numpy.fft"}
TRANSFORMS = {
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
    "dct", "idct", "dctn", "idctn", "dst", "idst", "dstn", "idstn", "fht", "ifht",
}


def _bindings(tree: ast.AST) -> dict:
    """Local name -> dotted path of every module or name an import binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    names[a.asname] = a.name
                else:
                    top = a.name.split(".")[0]
                    names[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                names[a.asname or a.name] = f"{node.module}.{a.name}"
    return names


def _dotted(func: ast.AST, names: dict) -> str | None:
    attrs = []
    while isinstance(func, ast.Attribute):
        attrs.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in names:
        return None
    return ".".join([names[func.id]] + attrs[::-1])


def policy_violations(source: str, filename: str) -> list[str]:
    """Transform calls of ``source`` that break the policy, one line each."""
    tree = ast.parse(source)
    names = _bindings(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func, names)
        if dotted is None or "." not in dotted:
            continue
        module, name = dotted.rsplit(".", 1)
        if module not in FFT_MODULES or name not in TRANSFORMS:
            continue
        where = f"{filename}:{node.lineno} {dotted}"
        if filename != HOME:
            found.append(f"{where}: transform outside {HOME}")
        elif not any(k.arg == "workers" and isinstance(k.value, ast.Name)
                     and k.value.id == "_FFT_WORKERS" for k in node.keywords):
            found.append(f"{where}: no workers=_FFT_WORKERS")
    return found


def test_package_keeps_the_transform_policy():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += policy_violations(path.read_text(), path.name)
    assert found == []


def test_guard_sees_the_package_transforms():
    # not vacuous: read as if it lived elsewhere, grid.py's calls are flagged
    # (rfft2, and the inverse transform's ifftn and irfft)
    source = (PACKAGE / HOME).read_text()
    assert len(policy_violations(source, "elsewhere.py")) >= 3


@pytest.mark.parametrize("source, filename", [
    ("import numpy as np\nnp.fft.ifft2(a)\n", HOME),
    ("import scipy.fft\nscipy.fft.irfft2(a, workers=_FFT_WORKERS)\n", "norms.py"),
    ("from scipy.fft import rfft2 as r2\nr2(a, workers=_FFT_WORKERS)\n", "kernels.py"),
    ("from scipy import fft\nfft.ifftn(a, axes=(0,), workers=_FFT_WORKERS)\n", "solver.py"),
    ("import scipy.fft\nscipy.fft.irfft(a, workers=2)\n", HOME),
    ("import scipy.fft\nscipy.fft.irfft2(a)\n", HOME),
])
def test_guard_flags_a_broken_policy(source, filename):
    assert len(policy_violations(source, filename)) == 1


@pytest.mark.parametrize("source", [
    "import scipy.fft\nscipy.fft.next_fast_len(7)\n",
    "import numpy as np\nnp.fft.fftfreq(8)\n",
    "import scipy.fft\nscipy.fft.irfft2(a, s=(8, 8), workers=_FFT_WORKERS)\n",
])
def test_guard_passes_what_the_policy_allows(source):
    assert policy_violations(source, HOME) == []
