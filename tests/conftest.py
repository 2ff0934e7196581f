from pathlib import Path

import numpy as np
import pytest

from ddwl import coherent
from ddwl.construction import Construction
from ddwl.digraph import Digraph
from ddwl.suite import Context
from reference import on_every_row

ACCEPTANCE_LINES: list[str] = []
SOURCES = Path(__file__).resolve().parents[1] / "src" / "ddwl"


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES.append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """The acceptance lines, and the src/ddwl line count as `wc -l` gives it."""
    lines = sum(p.read_bytes().count(b"\n") for p in SOURCES.glob("*.py"))
    terminalreporter.write_sep("=", f"src/ddwl: {lines} lines")
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _union_equivalent(g1: Digraph, g2: Digraph) -> bool:
    """WL-equivalence by refining the disjoint union of g1 and g2 as one
    digraph and comparing the stable color multisets of its two diagonal
    blocks.  The oracle for `coherent.wl_equivalent`, which compares the
    closures of the two graphs refined apart."""
    n = g1.n
    arcs = np.zeros((2 * n, 2 * n), dtype=bool)
    arcs[:n, :n] = g1.arcs
    arcs[n:, n:] = g2.arcs
    cc = on_every_row(lambda: coherent.wl_close(Digraph(arcs)))
    m1 = np.bincount(cc.color[:n, :n].ravel(), minlength=cc.rank)
    m2 = np.bincount(cc.color[n:, n:].ravel(), minlength=cc.rank)
    return bool(np.array_equal(m1, m2))


@pytest.fixture(scope="session")
def union_equivalent():
    return _union_equivalent


def _cayley_z4_squared(connection: set) -> Digraph:
    pts = [(a, b) for a in range(4) for b in range(4)]
    return Digraph(
        [[((v[0] - u[0]) % 4, (v[1] - u[1]) % 4) in connection for v in pts] for u in pts]
    )


@pytest.fixture(scope="session")
def shrikhande_and_rook():
    """The Shrikhande graph and the 4 x 4 rook's graph, both Cayley over
    Z4 x Z4 and strongly regular (16, 6, 2, 2): WL-equivalent, not isomorphic."""
    shrikhande = _cayley_z4_squared({(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)})
    rook = _cayley_z4_squared({(a, 0) for a in (1, 2, 3)} | {(0, a) for a in (1, 2, 3)})
    return shrikhande, rook


@pytest.fixture(scope="session")
def contexts():
    """One full-suite registry context per q for the whole session, so each
    construction, tensor and closure is built once and shared by the
    fixtures below and the acceptance tests."""
    return {q: Context(q) for q in (3, 5, 7, 9, 11)}


@pytest.fixture(scope="session")
def cons3(contexts):
    return contexts[3].cons


@pytest.fixture(scope="session")
def cons5(contexts):
    return contexts[5].cons


@pytest.fixture(scope="session")
def cons7(contexts):
    return contexts[7].cons


@pytest.fixture(scope="session")
def cons9(contexts):
    return contexts[9].cons


@pytest.fixture(scope="session")
def cons13():
    """q = 13, n = 2197: the construction the n**2-free checks are held to."""
    return Construction(13, max_vertices=13**3)


def _closures(ctx):
    return {i: ctx.closure(i) for i in ctx.cons.generators_I()}


@pytest.fixture(scope="session")
def closures3(contexts):
    return _closures(contexts[3])


@pytest.fixture(scope="session")
def closures5(contexts):
    return _closures(contexts[5])


@pytest.fixture(scope="session")
def dense_closure7(contexts):
    """The dense closure of the first q = 7 generator's digraph, about 1.1 s:
    the one dense q = 7 refinement the orbit-row closures are held to.  The
    plain copy carries no translations, so `wl_close` refines every row."""
    cons = contexts[7].cons
    g = Digraph(cons.build_cayley(cons.generators_I()[0]).arcs)
    return on_every_row(lambda: coherent.wl_close(g))


@pytest.fixture(scope="session")
def ring3(contexts):
    return contexts[3].ring


@pytest.fixture(scope="session")
def ring5(contexts):
    return contexts[5].ring


@pytest.fixture(scope="session")
def tensor3(contexts):
    return contexts[3].tensor


@pytest.fixture(scope="session")
def tensor5(contexts):
    return contexts[5].tensor
