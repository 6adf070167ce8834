import pytest
from hypothesis import settings

from vcselink import quadrature

# generated cases integrate disks, so their run time varies with the drawn
# geometry; no per-example deadline, each test keeps its own max_examples
settings.register_profile("vcselink", deadline=None)
settings.load_profile("vcselink")


@pytest.fixture
def starve_quadrature(monkeypatch):
    """Call with tolerances to let the disk quadrature refine only once for
    the rest of the test, so that integrands that need more fail."""

    def starve(rel_tol: float, abs_tol: float) -> None:
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 1)
        monkeypatch.setattr(quadrature, "_REL_TOL", rel_tol)
        monkeypatch.setattr(quadrature, "_ABS_TOL", abs_tol)

    return starve


@pytest.fixture
def tight_quadrature(monkeypatch):
    """The disk quadrature at a relative tolerance of 1e-11, not 1e-9."""
    monkeypatch.setattr(quadrature, "_REL_TOL", 1e-11)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
