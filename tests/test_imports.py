"""numpy and the series layers load only for work that needs a series.

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


def loaded_after(code):
    """The NUMPY_BACKED modules loaded after running `code`."""
    probe = (f"import json, sys\n{code}\n"
             f"print(json.dumps([m for m in {NUMPY_BACKED!r} "
             f"if m in sys.modules]))")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_main(argv):
    return f"from charp.cli import main\nassert main({argv!r}) == 0"


@pytest.mark.parametrize("code", [
    "import charp\nimport charp.cli",
    run_main(["decompose", "--p", "2", "--vars", "2", "--e", "1", "x+y"]),
    run_main(["cartier", "apply", "--p", "3", "--m", "2", "--vars", "2",
              "--e", "1", "-g", "x^2*y^2", "x*y"]),
    run_main(["report", "poly-ring", "--p", "2", "--vars", "2", "--e", "1"]),
    run_main(["selftest", "--trials", "5"]),
    "from charp.ffield import make_context\nctx = make_context(3, 4)\n"
    "ctx.frobenius_matrix(2)\nctx.generator().inverse()",
], ids=["import", "decompose", "cartier-apply", "report-poly-ring",
        "selftest", "frobenius-matrix-inverse"])
def test_work_without_series_loads_no_numpy(code):
    assert loaded_after(code) == []


@pytest.mark.parametrize("code", [
    run_main(["val", "--p", "2", "--stream", "lacunary", "y-x-x^2"]),
    "import charp\ncharp.EmbeddingValuation",
])
def test_valuations_load_numpy(code):
    assert "numpy" in loaded_after(code)


def test_star_import_binds_every_public_name():
    code = ("import charp\nfrom charp import *\n"
            "missing = [n for n in charp.__all__ if n not in globals()]\n"
            "assert not missing, missing")
    assert loaded_after(code) == list(NUMPY_BACKED)


def test_lazy_names_resolve():
    code = ("import charp\n"
            "assert charp.series.series_mul is charp._kernels.series_mul\n"
            "assert charp.TruncatedSeries is charp.series.TruncatedSeries\n"
            "assert charp.order is charp.valuation.order\n"
            "assert charp.valuation.DEFAULT_PRECISION_CAP == 4096\n"
            "assert {'EmbeddingValuation', 'series', 'order'} <= "
            "set(dir(charp))\n"
            "assert not hasattr(charp, 'no_such_name')")
    assert loaded_after(code) == list(NUMPY_BACKED)
