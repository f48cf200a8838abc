"""Pins the run digest of a 3-cycle paper-scale ``repro run``.

The other golden families run the fast world, whose experts have 3 to 8
channels.  The paper-scale experts also have 16- and 24-channel convs,
and their GEMMs take other BLAS kernels: a change to how the nn stack
calls BLAS (chunked GEMMs, layouts) can move bytes there alone.  The
digest ``repro run --full --seed 0 --cycles 3`` prints is compared with
``tests/golden/paper_scale.json``.
"""

from repro.cli import main

from tests.golden import Family

GOLDEN = Family("paper_scale", ["seed0/cycles3"])


def test_three_cycle_paper_scale_run_digest(tmp_path, golden, capsys):
    path = tmp_path / "run.digest"
    argv = ["run", "--full", "--seed", "0", "--cycles", "3"]
    assert main([*argv, "--digest-file", str(path)]) == 0
    capsys.readouterr()
    golden("seed0/cycles3", path.read_text().strip())
