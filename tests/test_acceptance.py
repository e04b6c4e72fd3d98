"""Acceptance gate: every criterion from the registry, one test each.

Run with -s to see the per-criterion PASS/FAIL lines; the same lines
come out of `aliaslab verify all`.  The context is session scoped so
the reconstruction runs shared between criteria happen once.
"""

import os

import pytest

from aliaslab import acceptance
from aliaslab.acceptance import AcceptanceContext, format_line, run_criteria


@pytest.fixture(scope="session")
def context():
    return AcceptanceContext(threads=int(os.environ.get("ALIASLAB_TEST_THREADS", "2")))


@pytest.fixture
def check(context, capfd):
    def _check(number):
        (result,) = run_criteria([number], context=context)
        line = format_line(result)
        # escape capture so the line shows up in plain pytest logs too
        with capfd.disabled():
            print(line, flush=True)
        assert result.passed, line

    return _check


def test_criterion_01_psi_identities(check):
    check(1)


def test_criterion_02_psi_oracle(check):
    check(2)


def test_criterion_03_psi_asymptotics(check):
    check(3)


def test_criterion_04_psi_decay(check):
    check(4)


def test_criterion_05_hurwitz_tail(check):
    check(5)


def test_criterion_05_zeta_reference_matches_scipy(monkeypatch):
    # with hurwitz_tail replaced by scipy's zeta, criterion 5's measured
    # deviations are the distance of its own zeta reference from scipy's
    from scipy.special import zeta

    monkeypatch.setattr(acceptance, "hurwitz_tail", lambda K, offset: float(zeta(1.5, K)))
    _, _, measured = acceptance._c05_hurwitz_tail(None)
    for K in (100, 10_000):
        assert measured[f"K={K}"] <= 1e-15 * float(zeta(1.5, K)), (K, measured)


def test_criterion_06_sqrt_coefficient(check):
    check(6)


def test_criterion_07_tangency_geometry(check):
    check(7)


def test_criterion_08_crt_fidelity(check):
    check(8)


def test_criterion_09_crt_convergence(check):
    check(9)


def test_criterion_10_grt_convergence(check):
    check(10)


def test_criterion_11_eta_robustness(check):
    check(11)


def test_criterion_12_determinism(check):
    check(12)


@pytest.mark.parametrize(
    "name, numbers",
    [
        ("all", tuple(range(1, 13))),
        ("psi-properties", (1, 2, 3, 4, 5)),
        ("geometry", (6, 7)),
        ("crt-fidelity", (8,)),
        ("crt-convergence", (9,)),
        ("grt-convergence", (10,)),
        ("hygiene", (11, 12)),
    ],
)
def test_suite_names_select_their_criteria(name, numbers):
    assert acceptance.select(name) == numbers
