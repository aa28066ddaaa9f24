"""The benchmark's span tracer (``bench/tracing.py``) against the solvers.

The tracer swaps names in ``ttamen`` and ``ttamen.amen`` for timing
wrappers.  These tests load it by path and check that every name it wraps
still exists, that a traced solve gives the bits of an untraced one and
records the expected spans, and that every swapped name is put back.
"""

import pytest

from ttamen import PoissonSpec, SolverConfig, amen_solve, build_poisson, dmrg_solve

from conftest import load_tracing

tracing = load_tracing()

# Poisson d=4, n=8: the local systems reach 4*8*4 = 128 unknowns, so a cap
# of 50 sends them to CG
CASES = {
    "svd": (amen_solve, dict(tol=1e-6, enrichment="svd", kickrank=2, max_sweeps=10)),
    "als-iterative": (
        amen_solve,
        dict(tol=1e-6, enrichment="als", kickrank=2, max_sweeps=10, max_direct_size=50),
    ),
    "dmrg": (dmrg_solve, dict(tol=1e-6, max_sweeps=10)),
}
SPANS = {
    "svd": {"amen.env", "amen.enrich", "amen.local_direct", "tt.norm", "tt.orthogonalize"},
    "als-iterative": {"amen.env", "amen.enrich", "amen.local_cg", "tt.norm", "tt.orthogonalize"},
    "dmrg": {"amen.env", "amen.local_direct", "tt.norm", "tt.orthogonalize"},
}


def _wrapped_names() -> dict:
    """The object now behind every name the tracer wraps, by (owner, name)."""
    patches = tracing._patches(tracing.Tracer())
    return {(id(owner), name): owner.__dict__[name] for owner, name, _ in patches}


def _outcome(x, log):
    return [c.tobytes() for c in x.cores], log.status, len(log.records), log.final_residual


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_solve_keeps_its_bits_and_restores_every_name(case):
    solve, options = CASES[case]
    A, y = build_poisson(PoissonSpec(dimension=4, grid_points=8))
    config = SolverConfig(seed=3, **options)
    untraced = _outcome(*solve(A, y, config=config))
    before = _wrapped_names()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert _wrapped_names() != before
        traced = _outcome(*solve(A, y, config=config))
    assert traced == untraced
    assert SPANS[case] <= set(tracer.span_counts())
    after = _wrapped_names()
    assert after.keys() == before.keys()
    assert all(after[key] is original for key, original in before.items())


def test_names_restored_when_traced_code_raises():
    before = _wrapped_names()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("boom")
    after = _wrapped_names()
    assert all(after[key] is original for key, original in before.items())
