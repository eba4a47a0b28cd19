import sys

import pytest


@pytest.fixture
def hilbert_calls(monkeypatch):
    """The cones passed to ``torfan.cones.hilbert_basis``, in call order.

    The counting wrapper replaces the function in every torfan module that
    binds it, so calls through imported names are counted too.
    """
    import torfan.cones

    original = torfan.cones.hilbert_basis
    calls = []

    def counted(c, *args, **kwargs):
        calls.append(c)
        return original(c, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "hilbert_basis", None)
        if name.split(".")[0] == "torfan" and bound is original:
            monkeypatch.setattr(module, "hilbert_basis", counted)
    return calls


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
