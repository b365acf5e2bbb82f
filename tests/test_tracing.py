"""The traced benchmark harness still reads what it needs from ``src/``.

``bench/tracing.py`` wraps functions by module attribute and reads box sizes
off the objects a run returns (``levels``, ``relations``, ``rel_rank()``,
``_mult_cache``, ...).  A refactor that renames one of them breaks the traced
run only; this test runs ``report`` under the tracer so it breaks here too.
"""

import importlib.util
import pathlib

from greenbox.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

SIZE_KEYS = ("boxes.ambient_gens", "boxes.relation_rows",
             "boxes.relation_rank", "boxes.reduced_dim",
             "boxes.mult_cache_entries", "boxes.useful_relation_ratio",
             "etale.congruence_checks", "etale.ideal_dim",
             "etale.square_dim")


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_report_yields_every_size(capsysbinary):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        assert main(["report", str(ROOT / "configs" / "kummer_f5_n2.cfg")]) \
            == 0
    assert b"Green \xc3\xa9tale: YES" in capsysbinary.readouterr().out
    metrics = tracing.layer_metrics(tracer, 0.0)
    for key in SIZE_KEYS:
        assert metrics[key] > 0, key
    for key in tracing.TIME_METRICS:
        assert key in metrics, key
