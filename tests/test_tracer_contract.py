"""The benchmark's layer tracer still finds what it wraps.

``perfbench/tracer.py`` is installed from outside the library: it rebinds
the three constructors in ``vars(SPStructure)``, looks up the point helpers
it skips by name, and reads ``st.kind`` and ``st.d`` to tag ``meet`` spans.
A refactor that moves any of these would only show in a traced benchmark
run; this test shows it in the fast suite.
"""

import importlib.util
import pathlib

from starprob import lattice as lat
from starprob import structures as core

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_constructors_and_meet_then_uninstalls():
    originals = {c: vars(core.SPStructure)[c] for c in ("classical", "ray", "explicit")}
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        structures = [core.SPStructure.classical(3), core.SPStructure.ray(3),
                      core.SPStructure.explicit([[1.0, 0.0], [0.0, 1.0]])]
        for st in structures:
            lat.meet(lat.full(st), lat.empty(st))
    finally:
        tracer.uninstall()
    spans = [tracer.names[i] for i in tracer.name_ids]
    for ctor in originals:
        assert spans.count(f"structures.SPStructure.{ctor}") == 1
    meets = [tag for i, tag in zip(tracer.name_ids, tracer.tags)
             if tracer.names[i] == "lattice.meet"]
    assert meets == [0, 3, 0]  # the ray meet is tagged with its dimension
    for ctor, original in originals.items():
        assert vars(core.SPStructure)[ctor] is original
    assert lat.meet.__module__ == "starprob.lattice"
    assert not hasattr(lat.meet, "__wrapped__")
