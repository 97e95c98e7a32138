"""A CLI process loads only what its command runs: numpy and the series
layers for work that needs a series, hashlib for seeded streams, and
OpenBLAS on one thread unless told otherwise.

Each case runs in a fresh interpreter, since this process has long since
imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
NUMPY_BACKED = ("numpy", "charp.series", "charp.valuation", "charp._kernels")


def value_after(code, expr, **environ):
    """The JSON value of `expr` after running `code` in a fresh interpreter;
    each keyword sets an environment variable, or unsets it when None."""
    probe = f"import json, os, sys\n{code}\nprint(json.dumps({expr}))"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for name, value in environ.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code, modules=NUMPY_BACKED):
    """The `modules` loaded after running `code`."""
    return value_after(code, f"[m for m in {modules!r} if m in sys.modules]")


def run_main(argv, code=0):
    return f"from charp.cli import main\nassert main({argv!r}) == {code}"


VAL = ["val", "--p", "2", "--stream", "lacunary", "y-x-x^2"]


@pytest.mark.parametrize("code", [
    "import charp\nimport charp.cli",
    run_main(["decompose", "--p", "2", "--vars", "2", "--e", "1", "x+y"]),
    run_main(["cartier", "apply", "--p", "3", "--m", "2", "--vars", "2",
              "--e", "1", "-g", "x^2*y^2", "x*y"]),
    run_main(["report", "poly-ring", "--p", "2", "--vars", "2", "--e", "1"]),
    run_main(["selftest", "--trials", "5"]),
    "from charp.ffield import make_context\nctx = make_context(3, 4)\n"
    "ctx.frobenius_matrix(2)\nctx.generator().inverse()",
    run_main(["dvr", "distinguish", "--p", "3", "--stream-a", "lacunary",
              "--stream-b", "lacunary+t^5-t^5"], code=1),
    "import charp\ncharp.first_difference\ncharp.distinguishing_fraction",
    run_main(["val", "--p", "2", "--stream", "nosuch(1)", "y"], code=2),
    run_main(["report", "dvr", "--p", "3", "--stream", "nosuch(2)"], code=2),
    "import charp.streams\nfrom charp.ffield import make_context\n"
    "s = charp.streams.from_seed(make_context(5, 3), 7)\ns.coefficient(9)",
], ids=["import", "decompose", "cartier-apply", "report-poly-ring",
        "selftest", "frobenius-matrix-inverse", "distinguish-agreeing",
        "stream-comparison", "val-bad-stream", "report-dvr-bad-stream",
        "build-seeded-stream"])
def test_work_without_series_loads_no_numpy(code):
    assert loaded_after(code) == []


@pytest.mark.parametrize("code", [
    run_main(VAL),
    "import charp\ncharp.EmbeddingValuation",
])
def test_valuations_load_numpy(code):
    assert "numpy" in loaded_after(code)


@pytest.mark.parametrize("argv,expected", [
    (["decompose", "--p", "2", "--vars", "2", "--e", "1", "x+y"], []),
    (VAL, []),
    (["val", "--p", "2", "--stream", "from-seed(7)", "y-x"], ["hashlib"]),
])
def test_only_seeded_streams_load_hashlib(argv, expected):
    assert loaded_after(run_main(argv), ("hashlib",)) == expected


@pytest.mark.parametrize("threads,expected", [(None, "1"), ("3", "3")])
def test_cli_runs_openblas_on_one_thread_unless_told(threads, expected):
    got = value_after(run_main(VAL), "os.environ['OPENBLAS_NUM_THREADS']",
                      OPENBLAS_NUM_THREADS=threads)
    assert got == expected


def test_star_import_binds_every_public_name():
    code = ("import charp\nfrom charp import *\n"
            "missing = [n for n in charp.__all__ if n not in globals()]\n"
            "assert not missing, missing")
    assert loaded_after(code) == list(NUMPY_BACKED)


def test_lazy_names_resolve():
    code = ("import charp\n"
            "assert charp.series.series_mul is charp._kernels.series_mul\n"
            "assert charp.TruncatedSeries is charp.series.TruncatedSeries\n"
            "assert charp.valuation.DEFAULT_PRECISION_CAP == 4096\n"
            "assert charp.valuation.first_difference is "
            "charp.first_difference\n"
            "assert {'EmbeddingValuation', 'series'} <= set(dir(charp))\n"
            "assert 'order' not in dir(charp)\n"
            "assert not hasattr(charp, 'no_such_name')")
    assert loaded_after(code) == list(NUMPY_BACKED)
