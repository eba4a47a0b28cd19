import importlib
import sys

import pytest


def _count_calls(monkeypatch, module_name: str, name: str) -> list:
    """Wrap ``module_name.name`` and return the list of first arguments it is
    called with, in call order.

    The counting wrapper replaces the function in every torfan module that
    binds it, so calls through imported names are counted too.
    """
    original = getattr(importlib.import_module(module_name), name)
    calls = []

    def counted(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        # vars, not getattr: getattr on the package would resolve a lazy export
        # and leave it bound there once monkeypatch restores it
        if mod_name.split(".")[0] == "torfan" and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def hilbert_calls(monkeypatch):
    """The cones whose Hilbert basis is computed (``torfan.cones._hilbert_basis``,
    behind ``Cone.hilbert``), in call order."""
    return _count_calls(monkeypatch, "torfan.cones", "_hilbert_basis")


@pytest.fixture
def profile_calls(monkeypatch):
    """The cones whose profile is computed (``torfan.profile._profile``, behind
    ``Cone.profile``), in call order."""
    return _count_calls(monkeypatch, "torfan.profile", "_profile")


def pytest_terminal_summary(terminalreporter):
    """Echo one line per acceptance criterion after the run."""
    try:
        from test_acceptance import REPORT
    except ImportError:
        return
    if REPORT:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in REPORT:
            terminalreporter.write_line(line)
