"""The benchmark's span tracer counts the oracle's kernel calls.

`perfbench/tracer.py` finds `dup_resultant` in every `evolute` module that
holds it and wraps each reference.  The oracle looks it up in its own
module global at each elimination and hands it to the sampling kernel
`intpoly.sampled`: the function itself for R, and `_discriminant_sample`,
which calls it, for D.  So every sample calls the wrapped reference.  A
reference the tracer misses would leave kernel calls uncounted, which only
a traced benchmark run would otherwise show.
"""

import runpy
from pathlib import Path

from evolute import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
Tracer = runpy.run_path(str(TRACER))["Tracer"]


def test_tracer_counts_every_kernel_call(capsys):
    # the ellipse: 5 packed samples of R, 11 of D and the transversality
    # resultant, as `test_oracle_work_counts` pins them
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(["oracle", "--poly", "x**2/4 + y**2 - 1", "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert '"match": true' in capsys.readouterr().out
    assert tracer.summary()["oracle.grid_points"] == 5 + 11 + 1
