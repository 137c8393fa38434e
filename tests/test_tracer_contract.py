"""The benchmark's tracer (perfbench/tracer.py) wraps loewner-kit names from
outside the package; every name it wraps must keep existing."""

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer
    from loewner_kit import maps

    original = maps.SlitStep.__dict__["_eval"]
    # entering looks up each wrapped function, method and property and
    # raises when one is gone; leaving puts the originals back
    with tracer.traced_by(tracer.Tracer("contract")):
        assert maps.SlitStep.__dict__["_eval"] is not original
    assert maps.SlitStep.__dict__["_eval"] is original
