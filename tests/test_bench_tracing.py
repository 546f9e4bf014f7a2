"""The benchmark's span tracer must find every function it traces.

bench/tracing.py swaps traced latetrack functions by name, so renaming
or deleting one (say pm_predict or kf_update) would break only the
benchmark's traced run. Installing and uninstalling the tracer here
catches that in the ordinary test run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_traced_name_and_uninstall_restores_it():
    tracing = load_tracing()
    modules = {name: importlib.import_module(name) for name in tracing.MODULES}
    traced = ([(modules[home], attr) for home, attr, _, _ in tracing.SPANNED]
              + [(modules[home], attr) for home, attr, _ in tracing.COUNTED]
              + [(modules["latetrack.predictors"], "kf_motion_batch")]
              + [(getattr(modules[home], cls), attr) for home, cls, attr, _ in tracing.METHODS])
    owners = {*modules.values(), *(owner for owner, _ in traced)}
    before = {owner: dict(vars(owner)) for owner in owners}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr in traced:
            assert vars(owner)[attr] is not before[owner][attr], \
                f"{owner.__name__}.{attr} was not wrapped"
    finally:
        tracer.uninstall()

    for owner, names in before.items():
        after = vars(owner)
        assert set(after) == set(names), owner.__name__
        changed = [name for name, value in names.items() if after[name] is not value]
        assert not changed, f"{owner.__name__}: {changed} not restored"
