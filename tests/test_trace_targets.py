"""The benchmark's outside tracer still finds every function it wraps.

``perfbench/spans.py`` wraps motcalc functions by name for
``perfbench/run.py --trace 1``; a rename in motcalc would break that
mode only when it runs.  This test loads the tracer as it is and traces
one analyze and check pass on a corpus document.
"""

import importlib
import importlib.util
import os
import sys

from motcalc import document

REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SPANS_PATH = os.path.join(REPO_ROOT, "perfbench", "spans.py")
CORPUS_FILE = os.path.join(REPO_ROOT, "motives", "ext_weil.json")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def target(module_name, attr):
    """The object a TARGETS entry names: a module function or a method."""
    module = importlib.import_module("motcalc." + module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        return vars(getattr(module, cls_name))[method]
    return getattr(module, attr)


def motcalc_bindings():
    """Every name bound in a motcalc module or on a class defined there."""
    bound = {}
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "motcalc"
                                  or key.startswith("motcalc.")):
            continue
        for name, value in list(vars(module).items()):
            bound[(key, name)] = value
            if isinstance(value, type) and value.__module__ == key:
                for attr, member in list(vars(value).items()):
                    bound[(key, name, attr)] = member
    return bound


def test_every_target_resolves_and_is_restored():
    spans = load_spans()
    for module_name, attr, _, _ in spans.TARGETS:
        assert callable(target(module_name, attr)), (module_name, attr)
    with open(CORPUS_FILE, encoding="utf-8") as handle:
        text = handle.read()
    before = motcalc_bindings()

    tracer = spans.Tracer()
    with tracer.installed():
        wrapped = [target(m, a) for m, a, _, _ in spans.TARGETS]
        # through the module, as perfbench/run.py calls them, so the
        # wrappers installed there are the ones called
        doc = document.parse_input(text)
        for _, motive in doc.motives:
            document.analyze_motive(motive)
        assert document.check_invariants(doc) == []

    originals = [before[("motcalc." + m,) + tuple(a.split("."))]
                 for m, a, _, _ in spans.TARGETS]
    assert all(w is not o for w, o in zip(wrapped, originals))
    names = {record[spans.NAME] for record in tracer.spans}
    assert {"motive.OneMotive", "document.check_invariants",
            "document.parse_input", "radical.unipotent_radical"} <= names
    # the duals and the scaled copy of the invariant checks are built
    # unchecked, so only parsed motives run the constructor
    constructed = [r for r in tracer.spans
                   if r[spans.NAME] == "motive.OneMotive"]
    assert len(constructed) == len(doc.motives)
    after = motcalc_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
