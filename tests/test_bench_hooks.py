"""The benchmark's tracer patches names in src/; a refactor that moves one
of them would otherwise only break ``bench/run.py --trace 1``."""

import contextlib
import io
import pathlib

from skewseries import cli

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"
ARGV = ["rank", "6,5,5;5,6,5;5,5,6", "--ring", "zmod:2^3"]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_tracer_hooks_fit_the_program(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from tracer import Tracer

    plain = _run(ARGV)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run(ARGV)
    finally:
        removed = tracer.uninstall()
    assert removed
    assert traced == plain
    layers = tracer.metrics()
    assert layers["k0.rank_calls"][0] == 1
    assert layers["k0.scalar_mul_calls"][0] > 0
