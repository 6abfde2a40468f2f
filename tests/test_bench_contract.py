"""The contract between the package and the benchmark's tracer,
perfbench/spans.py, which wraps names the package's modules import from one
another: every name it wraps resolves, and a traced solve of each problem
records its spans and leaves the package as it found it. The tracer is
loaded from its file and not edited.
"""

import importlib.util
from pathlib import Path

import pytest

import mimo_d2d
from mimo_d2d import ControlProblemSpec

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves(spans):
    """Each (module, attribute) of SITES is a callable on the package."""
    missing = [f"{mod}.{attr} ({name})" for mod, attr, name in spans.SITES
               if not callable(getattr(getattr(mimo_d2d, mod, None), attr, None))]
    assert not missing


def test_traced_solves_record_spans_and_restore_the_package(spans, small_scenario):
    """One solve of each of the 8 problems under Tracer.installed(): every
    solve and every GP span carries its attributes, Algorithm 2 records the
    condensations it runs as gp.mlb spans, and on exit every patched
    attribute is the original again."""
    sites = [(getattr(mimo_d2d, mod), attr) for mod, attr, _ in spans.SITES]
    scenario_cls = mimo_d2d.scenario.Scenario
    originals = [getattr(module, attr) for module, attr in sites]
    build = scenario_cls.__dict__["build"]
    tracer = spans.Tracer(mimo_d2d)
    recorded = {}
    with tracer.installed():
        assert all(getattr(module, attr) is not original
                   for (module, attr), original in zip(sites, originals))
        for pid in spans.PROBLEM_IDS:
            processing, objective, scope = pid.split("-")
            mark = tracer.mark()
            mimo_d2d.power_control.solve_problem(
                small_scenario, ControlProblemSpec(objective, scope, processing))
            recorded[pid] = tracer.spans[mark:]

    for pid, spans_of in recorded.items():
        solves = [s[4] for s in spans_of if s[0] == "power_control.solve"]
        assert [a["problem"] for a in solves] == [pid], pid
        gps = [s[4] for s in spans_of if s[0] == "gp.gp"]
        assert all(a is not None and {"terms", "vars", "newton"} <= set(a) for a in gps), pid
        if pid.endswith("joint"):
            assert gps, pid
        mlb = sum(s[0] == "gp.mlb" for s in spans_of)
        assert (mlb > 0) == (pid in ("zf-maxmin-joint", "zf-maxprod-joint")), pid
    assert all(getattr(module, attr) is original
               for (module, attr), original in zip(sites, originals))
    assert scenario_cls.__dict__["build"] is build
