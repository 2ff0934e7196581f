"""Reproducible verification runs: one registry of checks, walked in order
by `run_suite` and parametrized over by the acceptance tests.  Each entry
codes its check once, as `(ctx, exhaustive) -> (status, data)`, and says at
which q it runs in each suite and where its exhaustive variant stops.  Same
invocation, same report (timings can be suppressed for byte-identical output).
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import coherent, designs, isotest, srings
from .arith import euler_phi
from .construction import Construction
from .digraph import Digraph

__version__ = "0.1.0"

DEFAULT_SEED = 20240


@dataclass
class CheckResult:
    name: str
    status: str   # "pass" | "fail" | "undetermined"
    data: dict = field(default_factory=dict)


@dataclass
class RunReport:
    q: int
    suite: str
    seed: int
    field_json: dict
    checks: list[CheckResult] = field(default_factory=list)
    timings: dict = field(default_factory=dict)  # seconds per check
    peak_rss_mb: dict = field(default_factory=dict)  # the process peak RSS, MB, once each check ran

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self, include_timings: bool = True) -> dict:
        out = {
            "tool": "ddwl",
            "version": __version__,
            "q": self.q,
            "suite": self.suite,
            "seed": self.seed,
            "field": self.field_json,
            "checks": [
                {"name": c.name, "status": c.status, "data": c.data} for c in self.checks
            ],
            "ok": self.ok,
        }
        if include_timings:  # the figures that vary from run to run
            out["timings"] = self.timings
            out["peak_rss_mb"] = self.peak_rss_mb
        return out


class Context:
    """What the checks of one (q, seed) run share.  Everything is built on
    first use, so an error while building it fails the check that asked.
    Each family digraph Cay(X_i) is built once, so its translations are
    proven once per run."""

    def __init__(self, q: int, seed=DEFAULT_SEED):
        self.q, self.seed = q, seed
        self.digraphs: dict[int, Digraph] = {}
        self.closures: dict[int, coherent.CoherentConfiguration] = {}

    @cached_property
    def cons(self) -> Construction:
        return Construction(self.q, max_vertices=self.q**3)

    @cached_property
    def ring(self) -> srings.SRing:
        return srings.SRing.from_construction(self.cons)

    @cached_property
    def tensor(self) -> srings.StructureConstantTensor:
        return srings.structure_constants(self.ring)

    def digraph(self, i: int) -> Digraph:
        """Cay(X_i); `_ddd_parameters` derives and drops Cay(Y_i) itself."""
        if i not in self.digraphs:
            self.digraphs[i] = self.cons.build_cayley(i)
        return self.digraphs[i]

    def closure(self, i: int) -> coherent.CoherentConfiguration:
        """The closure of digraph i, refined from row e by its translations."""
        if i not in self.closures:
            self.closures[i] = coherent.wl_close(self.digraph(i))
        return self.closures[i]

    def cell_colors(self, i: int) -> np.ndarray:
        """The color of each analytic cell, in `Construction.cells` order, in
        row e of closure i."""
        heads = [cell[0] for cell in self.cons.cells()]
        return self.closure(i).color[self.cons.table.identity, heads]

    def extension(self, i: int) -> coherent.CoherentConfiguration:
        """The one-point extension at e of closure i, one row per K-orbit."""
        cons = self.cons
        gen = cons.rho_perm(*cons.k_generator())
        return coherent.orbit_extension(self.closure(i), cons.table.identity, [gen])


def _field_axioms(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """field axioms and (q - 1) / 2 nonzero squares"""
    f, q = ctx.cons.field, ctx.q
    a = np.arange(q)
    ok = True
    ok &= bool((f.add(a[:, None], a[None, :]) == f.add(a[None, :], a[:, None])).all())
    ok &= bool((f.mul(a[:, None], a[None, :]) == f.mul(a[None, :], a[:, None])).all())
    x, y, z = np.meshgrid(a, a, a, indexing="ij")
    ok &= bool((f.add(f.add(x, y), z) == f.add(x, f.add(y, z))).all())
    ok &= bool((f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))).all())
    ok &= bool((f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))).all())
    nz = a[1:]
    ok &= bool((f.mul(nz, f.inv_t[nz]) == 1).all())
    squares = int(sum(f.is_square(int(v)) for v in nz))
    ok &= squares == (q - 1) // 2
    return ("pass" if ok else "fail"), {"q": q, "nonzero_squares": squares}


def _group_axioms(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """group axioms over all or 10^4 sampled triples, center of order q"""
    t = ctx.cons.table
    mult, inv, n = t.mult, t.inv, t.n
    ok = bool((mult[0] == np.arange(n)).all() and (mult[:, 0] == np.arange(n)).all())
    ok &= bool((mult[np.arange(n), inv] == 0).all())
    rng = np.random.default_rng(ctx.seed)
    if exhaustive:
        grid = np.arange(n)
        aa, bb, cc = (x.ravel() for x in np.meshgrid(grid, grid, grid, indexing="ij"))
        samples = n**3
    else:
        samples = 10_000
        aa = rng.integers(0, n, samples)
        bb = rng.integers(0, n, samples)
        cc = rng.integers(0, n, samples)
    ok &= bool((mult[mult[aa, bb], cc] == mult[aa, mult[bb, cc]]).all())
    center = np.flatnonzero(t.center_mask)
    ok &= len(center) == ctx.q
    ok &= bool((mult[np.ix_(center, np.arange(n))] == mult[np.ix_(np.arange(n), center)].T).all())
    return ("pass" if ok else "fail"), {"n": n, "sampled_triples": int(samples)}


def _k_automorphisms(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """K is the q^2 - 1 powers of one twist map, an automorphism of every family digraph"""
    cons = ctx.cons
    labels = cons.build_K()   # raises unless rho(M(a0, b0)) is an automorphism of order q^2 - 1
    g = cons.rho_perm(*cons.k_generator())
    # a power of a digraph automorphism is one too, so only g meets the arcs
    gens = cons.generators_I()
    ok = len(labels) == cons.q**2 - 1
    ok &= all(coherent.carries_out(o, o, [g]) for o in (ctx.digraph(i).out for i in gens))
    return ("pass" if ok else "fail"), {"k_order": len(labels), "graph_checks": len(gens)}


def _orbit_partition(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """the K-orbits are the q + 2 analytic cells"""
    orbits = ctx.cons.k_orbits()   # raises unless the orbits are the q + 2 cells
    return "pass", {"cells": len(orbits)}


def _psi_group(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """psi is a cyclic group law of order q + 1 with phi(q + 1) generators,
    proven on the `psi_table()` that criteria 4, 6, 9 and 11 read by
    whole-array checks: entries in [0, q], row and column q the identity,
    table[x, chi(x)] = q, and table[table[x, y], z] = table[x, table[y, z]]
    for every triple, as `table[table]` against `table[e[:, None, None], table]`."""
    cons, q = ctx.cons, ctx.q
    table, e = cons.psi_table(), np.arange(q + 1)
    ok = bool(((table >= 0) & (table <= q)).all())
    ok = ok and np.array_equal(table[q], e) and np.array_equal(table[:, q], e)
    ok = ok and bool((table[e, cons.chi(e)] == q).all())
    ok = ok and np.array_equal(table[table], table[e[:, None, None], table])
    gens = cons.generators_I()
    ok &= len(gens) == euler_phi(q + 1) and all(cons.psi_order(i) == q + 1 for i in gens)
    return ("pass" if ok else "fail"), {"order": q + 1, "generators": gens}


def _dds_transversal(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """difference multiset (q^2, 0, q) of every X_i, both orders"""
    results = {i: srings.verify_transversal(ctx.ring, i).ok for i in range(ctx.q)}
    ok = all(results.values())
    return ("pass" if ok else "fail"), {"per_i": {str(k): bool(v) for k, v in results.items()}}


def _structure_constants(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """structure constants match their closed forms"""
    q = ctx.q
    data = srings.constants_report(ctx.ring, ctx.tensor)
    ok = not data["closed_form_mismatches"] and data["checked"] == q * q * (q + 1)
    return ("pass" if ok else "fail"), data


def _tensor_identities(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """triangle and mass identities of the convolution tensor"""
    return ("pass" if coherent.tensor_identities_hold(ctx.tensor) else "fail"), {}


def _ddd_parameters(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """(0, q) with loops; loopless: regular q^2 - 1, counts q - [arc-joined]"""
    cons, q = ctx.cons, ctx.q
    classes = cons.table.coset_ids
    # each vertex has q^2 - 1 cross-class out-arcs, none reciprocated
    joined = q**3 * (q * q - 1)
    cross = {q - 1: joined, q: q**3 * (q**3 - q) // 2 - joined}
    data = {}
    ok = True
    for i in cons.generators_I():
        rep = designs.verify_ddd(ctx.digraph(i), classes, expected=(0, q))
        loopless = ctx.digraph(i).without_loops()
        rep_ll = designs.verify_ddd(loopless, classes, expected=(0, q))
        looped_ok = rep.ok and rep.out_degrees == {q * q}
        loopless_ok = (
            rep_ll.loopless and rep_ll.asymmetric and not rep_ll.counts_match
            and rep_ll.out_degrees == rep_ll.in_degrees == {q * q - 1}
            and set(rep_ll.same_in) == set(rep_ll.same_out) == {0}
            and (rep_ll.m, rep_ll.n_class) == (q * q, q)
            and rep_ll.cross_in == rep_ll.cross_out == cross
        )
        witness = dict(rep_ll.witness) if rep_ll.witness else None
        if witness:
            u, v = witness["pair"]
            joined_ok = v in loopless.out[u] or u in loopless.out[v]
            loopless_ok &= not witness["same_class"] and bool(joined_ok)
            loopless_ok &= witness["common_in"] == witness["common_out"] == q - 1
            witness["pair_elements"] = [cons.table.element_to_json(w) for w in (u, v)]
        ok &= looped_ok and loopless_ok and witness is not None
        data[f"i={i}"] = {
            "graph_with_loops": {
                "ok": looped_ok, "cross_in": rep.cross_in, "cross_out": rep.cross_out
            },
            "loopless_companion": {
                "ok": bool(loopless_ok and witness is not None),
                "counts_match": rep_ll.counts_match,
                "cross_in": rep_ll.cross_in,
                "cross_out": rep_ll.cross_out,
                "regular": rep_ll.regular,
                "asymmetric": rep_ll.asymmetric,
                "witness": witness,
            },
        }
    return ("pass" if ok else "fail"), data


def _wl_closure(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """closure rank q + 2, K-orbit cells, tensor = convolution tensor"""
    cons, q, gens = ctx.cons, ctx.q, ctx.cons.generators_I()
    want = {c.tobytes() for c in cons.cells()}
    data = {}
    ok = True
    for i in gens if exhaustive else gens[:1]:
        cc = ctx.closure(i)
        cells = {c.astype(np.int64).tobytes() for c in coherent.as_sring_partition(cc, cons.table)}
        partition_matches = cc.rank == q + 2 and cells == want
        row = data[f"i={i}"] = {
            "rank": cc.rank,
            "partition_matches": partition_matches,
            "rounds": cc.rounds,
            # each cell's constants moved to its color; the colors are a
            # bijection of the cells only once the partition matches
            "tensor_matches_constants": partition_matches
            and coherent.verify_algebraic_map(ctx.tensor, cc, ctx.cell_colors(i)),
            "tensor_identities": coherent.tensor_identities_hold(cc),
        }
        ok &= row["partition_matches"] and row["tensor_matches_constants"]
        ok &= row["tensor_identities"]
    return ("pass" if ok else "fail"), data


def _wl_equivalence(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """every pair of generator-labelled digraphs is refinement-equivalent"""
    gens = ctx.cons.generators_I()
    inv = {i: coherent.invariants(ctx.digraph(i), ctx.closure(i)) for i in gens}
    data = {f"{a},{b}": inv[a] == inv[b] for ai, a in enumerate(gens) for b in gens[ai + 1:]}
    return ("pass" if all(data.values()) else "fail"), data


def _tau_hat_transport(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """tau-hat transports the closure tensor and arc colors, every ordered pair"""
    cons, q1 = ctx.cons, ctx.q + 1
    gens = cons.generators_I()
    # images[a, b] = gens[a]**exponents[b], all from one table
    exponents = np.array([m for m in range(1, q1) if math.gcd(m, q1) == 1])
    images = cons.psi_pow(np.array(gens)[:, None], exponents)
    arc_colors = {
        i: coherent.invariants(ctx.digraph(i), ctx.closure(i))["arc_colors"] for i in gens
    }
    data = {}
    for a, i in enumerate(gens):
        for j in (j for j in gens if j != i):
            # the color bijection induced by the least power map sending i to j
            m = int(exponents[images[a] == j][0])
            sigma_cells = srings.tau_hat(ctx.ring, m)
            # sigma sends the color of cell k in closure i to that of cell sigma_cells[k] in j
            sigma = ctx.cell_colors(j)[sigma_cells][np.argsort(ctx.cell_colors(i))]
            good = coherent.verify_algebraic_map(ctx.closure(i), ctx.closure(j), sigma)
            # the arc colors of graph i must land on the arc colors of graph j
            good &= {int(sigma[c]) for c in arc_colors[i]} == set(arc_colors[j])
            data[f"{i}->{j}"] = {"exponent": m, "transports": bool(good)}
    ok = all(d["transports"] for d in data.values())
    return ("pass" if ok else "fail"), data


def _algebraic_automorphisms(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """phi(q + 1) distinct power maps tau-hat preserve the tensor; at most 2 log_p q induced"""
    q1 = ctx.q + 1
    want = euler_phi(q1)
    autos = [srings.tau_hat(ctx.ring, m) for m in range(1, q1) if math.gcd(m, q1) == 1]
    ok = all(coherent.verify_algebraic_map(ctx.tensor, ctx.tensor, sigma) for sigma in autos)
    ok &= len({sigma.tobytes() for sigma in autos}) == len(autos) >= want
    ok &= srings.is_group_closed(autos)
    data = {"count": len(autos), "phi_bound": want}
    if exhaustive:
        found = [srings.is_induced(ctx.ring, sigma).status for sigma in autos]
        data.update(induced=found.count("induced"), induced_bound=2 * ctx.cons.field.l)
        if ok and "undetermined" in found:
            return "undetermined", data
        ok &= data["induced"] <= data["induced_bound"]
    return ("pass" if ok else "fail"), data


def _design_isomorphism(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """neighbourhood designs of X_0 and X_i isomorphic on all pairs, det(A) nonzero"""
    cons = ctx.cons
    data = {}
    ok = True
    for i in range(cons.q):
        rep = designs.verify_design_iso(cons, i)
        ok &= rep.crit_holds and rep.det_a_nonzero
        data[f"i={i}"] = rep.to_json()
    return ("pass" if ok else "fail"), data


def _one_point_extension(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """extension fibers, one-color valency-1 relations, regular on Y_0, identities"""
    cons, t, psi = ctx.cons, ctx.cons.table, ctx.cons.psi_table()
    ext = ctx.extension(cons.generators_I()[0])
    got = {np.sort(f).astype(np.int64).tobytes() for f in ext.fibers}
    fibers_ok = got == {c.tobytes() for c in cons.cells()}
    y0 = cons.build_Y(0)
    valency_ok = True
    for j in range(1, cons.q):
        yj = cons.build_Y(j)
        block = ext.color[np.ix_(y0, yj)]
        srt = np.sort(block, axis=1)   # equal sorted rows: equal color counts
        # the distinguished valency-1 relation: pairs whose quotient lands in
        # the cell labelled by psi(j, 0); it must be exactly one color class
        quot = t.mult[np.ix_(yj, t.inv[y0])]   # quot[b, a] = yj_b * y0_a**-1
        rel = np.isin(quot, cons.build_Y(int(psi[j, 0]))).T
        colors = np.flatnonzero(np.bincount(block[rel]))
        valency_ok &= bool(
            (srt == srt[0]).all() and len(colors) == 1
            and np.array_equal(block == colors[0], rel) and (block[0] == colors[0]).sum() == 1
        )
    # no color twice in a row of Y_0 x Y_0: every sorted row strictly increases
    regular_ok = bool((np.diff(np.sort(ext.color[np.ix_(y0, y0)], axis=1), axis=1) > 0).all())
    data = {
        "fibers_match_cells": bool(fibers_ok),
        "valency_one_colors": bool(valency_ok),
        "regular_on_Y0": bool(regular_ok),
        "extension_rank": ext.rank,
        "tensor_identities": coherent.tensor_identities_hold(ext),
    }
    ok = fibers_ok and valency_ok and regular_ok and data["tensor_identities"]
    return ("pass" if ok else "fail"), data


def _iso_classes(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """at least phi(q + 1) / (2 log_p q) isomorphism classes, every pair decided"""
    cons, gens = ctx.cons, ctx.cons.generators_I()
    graphs = [ctx.digraph(i) for i in gens]
    result = isotest.iso_class_count(graphs, [ctx.closure(i) for i in gens])
    bound = max(1, euler_phi(cons.q + 1) // (2 * cons.field.l))
    status = "pass" if result.exact and result.count >= bound else (
        "undetermined" if not result.exact else "fail"
    )
    return status, {
        "labels": gens,
        "classes": result.count,
        "exact": result.exact,
        "lower_bound_required": bound,
        "pairs": {f"{gens[i]},{gens[j]}": v for (i, j), v in sorted(result.pair_results.items())},
    }


def _reverse_pair_isomorphism(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """Cay(X_i) ~ Cay(X_chi(i)): the search says so, and the closed-form
    sigma(x, y, z) = (x, -y, -z) carries the arcs"""
    cons, t, f = ctx.cons, ctx.cons.table, ctx.cons.field
    i = cons.generators_I()[0]
    j = cons.chi(i)
    g1, g2 = ctx.digraph(i), ctx.digraph(j)
    cert = isotest.are_isomorphic(g1, g2, ctx.closure(i), ctx.closure(j))
    sigma = coherent.as_permutation(t._pack(t.ix, f.neg(t.iy), f.neg(t.iz)), cons.n)
    witnessed = cert.isomorphic and coherent.carries_out(g1.out, g2.out, [sigma])
    status = "undetermined" if cert.kind == "undetermined" else ("pass" if witnessed else "fail")
    return status, {"i": i, "chi_i": j, "result": cert.kind}


def _automorphism_order(ctx: Context, exhaustive: bool) -> tuple[str, dict]:
    """|Aut| = q^3 (q^2 - 1)"""
    cons = ctx.cons
    i = cons.generators_I()[0]
    want = cons.q**3 * (cons.q**2 - 1)
    try:
        order = isotest.automorphism_order(ctx.digraph(i), ctx.closure(i))
    except isotest.BudgetExceeded:
        return "undetermined", {"expected": want}
    return ("pass" if order == want else "fail"), {"order": order, "expected": want}


ANY = math.inf
NEVER = (0, 0)


@dataclass(frozen=True)
class Check:
    name: str
    criterion: str
    fn: Callable[[Context, bool], tuple[str, dict]]
    # per suite: (largest q of the exhaustive variant, largest q the check runs at)
    full: tuple[float, float] = (ANY, ANY)
    fast: tuple[float, float] = (ANY, ANY)

    def variant(self, q: int, suite: str) -> str | None:
        """"exhaustive" or "sampled" at (q, suite); None where it does not run."""
        exhaustive_to, runs_to = self.full if suite == "full" else self.fast
        if q > runs_to:
            return None
        return "exhaustive" if q <= exhaustive_to else "sampled"


# The checks in report order, and the one size table: the sampled variants
# are 10^4 group triples, the first label's closure only, and no inducedness
# search.
REGISTRY = [
    Check("field_axioms", "12", _field_axioms),
    Check("group_axioms", "12", _group_axioms, full=(3, ANY), fast=(3, ANY)),
    Check("k_automorphisms", "8", _k_automorphisms),
    Check("orbit_partition", "5", _orbit_partition),
    Check("psi_group", "3", _psi_group),
    Check("dds_transversal", "2", _dds_transversal),
    Check("structure_constants", "4", _structure_constants),
    Check("tensor_identities", "12", _tensor_identities),
    Check("ddd_parameters", "1", _ddd_parameters),
    Check("wl_closure", "5, 12", _wl_closure, full=(7, ANY), fast=(0, ANY)),
    Check("wl_equivalence", "6", _wl_equivalence, full=(7, 7), fast=NEVER),
    Check("tau_hat_transport", "6", _tau_hat_transport, full=(7, 7), fast=NEVER),
    Check("algebraic_automorphisms", "9", _algebraic_automorphisms, full=(5, ANY), fast=(5, ANY)),
    Check("design_isomorphism", "10", _design_isomorphism),
    Check("one_point_extension", "11", _one_point_extension, full=(9, 9), fast=(7, 7)),
    Check("iso_classes", "7", _iso_classes, full=(7, 7), fast=NEVER),
    Check("reverse_pair_isomorphism", "7", _reverse_pair_isomorphism, full=(7, 7), fast=NEVER),
    Check("automorphism_order", "8", _automorphism_order, full=(5, 5), fast=NEVER),
]


def run_suite(q: int, suite="full", seed=DEFAULT_SEED) -> RunReport:
    if suite not in ("full", "fast"):
        raise ValueError("suite must be 'full' or 'fast'")
    ctx = Context(q, seed)
    checks, timings, peaks = [], {}, {}
    for check in REGISTRY:
        variant = check.variant(q, suite)
        if variant is None:
            continue
        t0 = time.perf_counter()
        try:
            status, data = check.fn(ctx, variant == "exhaustive")
        except Exception as exc:  # a crashed check is a failed check, loudly
            status, data = "fail", {"error": f"{type(exc).__name__}: {exc}"}
        checks.append(CheckResult(check.name, status, data))
        timings[check.name] = round(time.perf_counter() - t0, 3)
        peaks[check.name] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return RunReport(q, suite, seed, ctx.cons.field.to_json(), checks, timings, peaks)
