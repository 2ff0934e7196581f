"""The benchmark's three workloads, their verdict gates and the traced layers.

Each plan drives ddwl's public functions for one (q, seed) in a single
process, closed loop: one caller, each call waiting for the one before it.
A plan returns an `Outcome`:

* `verdicts`: named facts from the paper, each True when it held;
* `counts`: exact values that must repeat on every run of one commit;
* `seeded_counts`: exact values that depend on the seed, so must repeat
  only for the same seed;
* `data`: recorded with the results, never gated.

`expectations(q)` gives the values the paper predicts; a test can hand a
plan a changed copy to check that the gate trips.

Why these workloads: each leans on a different layer, so a change to one
layer shows its gain on one workload and its "no change" prediction on
another.

* verify-q5: the whole `ddwl verify 5 --suite full` run, 18 exhaustive
  checks; nearly all of its time is in `coherent` (count-mode closures, the
  two-graph union of `wl_equivalent`, the sort-mode one-point extension).
  It is the only workload that goes through `suite`.
* family-q7: the q = 7 headline. Four Cayley closures, the isomorphism
  class count, and a seeded relabeling that must stay on the generic dense
  refinement path; `coherent` and `isotest`.
* algebra-q13: the refinement-free, search-free checks at q = 13 (n = 2197):
  `construction`, `srings`, `designs`. `coherent` and `isotest` are never
  called, so the prediction for a refinement change here is "no change";
  n x n tables and dense matmuls show in both time and memory.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, NamedTuple

import numpy as np

from ddwl import coherent, designs, isotest, srings, suite
from ddwl.arith import euler_phi
from ddwl.construction import Construction


class Outcome:
    def __init__(self):
        self.verdicts: dict[str, bool] = {}
        self.counts: dict[str, object] = {}
        self.seeded_counts: dict[str, object] = {}
        self.data: dict[str, object] = {}
        self.check_timings: dict[str, float] = {}

    def verdict(self, name: str, holds) -> None:
        if name in self.verdicts:
            raise ValueError(f"verdict {name} recorded twice")
        self.verdicts[name] = bool(holds)

    def failed(self) -> list[str]:
        return [name for name, holds in self.verdicts.items() if not holds]


def expectations(q: int) -> dict:
    """What the paper says about the family at q."""
    return {
        "status": "pass",
        "suite_checks": 18,
        "rank": q + 2,
        "k_order": q * q - 1,
        "orbits": q + 2,
        # at least phi(q+1) / (2 log_p q) classes; exactly 2 at q = 7
        "classes": 2 if q == 7 else None,
    }


def _class_bound(cons: Construction) -> int:
    return max(1, euler_phi(cons.q + 1) // (2 * cons.field.l))


def verify_plan(q: int, seed: int, expect: dict) -> Outcome:
    out = Outcome()
    report = suite.run_suite(q, "full", seed=seed)
    out.verdict("suite.checks", len(report.checks) == expect["suite_checks"])
    for check in report.checks:
        out.verdict(f"suite.{check.name}", check.status == expect["status"])
    # the bytes `ddwl verify q --suite full --no-timings` writes
    text = json.dumps(report.to_json(include_timings=False), indent=2, sort_keys=True) + "\n"
    out.seeded_counts["suite.report_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    by_name = {c.name: c.data for c in report.checks}
    closures = by_name.get("wl_closure", {}).values()
    out.counts["suite.wl_closure.rounds"] = sum(d["rounds"] for d in closures)
    out.counts["suite.wl_closure.rank"] = sum(d["rank"] for d in closures)
    out.counts["suite.one_point_extension.rank"] = by_name.get(
        "one_point_extension", {}
    ).get("extension_rank")
    out.counts["suite.design_isomorphism.pairs_checked"] = sum(
        d["pairs_checked"] for d in by_name.get("design_isomorphism", {}).values()
    )
    out.check_timings = dict(report.timings)
    return out


def family_plan(q: int, seed: int, expect: dict) -> Outcome:
    out = Outcome()
    cons = Construction(q)
    gens = cons.generators_I()
    orbits = {o.astype(np.int64).tobytes() for o in cons.k_orbits()}
    graphs = [cons.build_cayley(i) for i in gens]
    closures = []
    for i, g in zip(gens, graphs):
        cc = coherent.wl_close(g)
        closures.append(cc)
        cells = {c.astype(np.int64).tobytes() for c in coherent.as_sring_partition(cc, cons.table)}
        out.verdict(f"wl_close[{i}].rank", cc.rank == expect["rank"])
        out.verdict(f"wl_close[{i}].cells_are_k_orbits", cells == orbits)
        out.counts[f"wl_close[{i}].rounds"] = cc.rounds
        out.counts[f"wl_close[{i}].rank"] = cc.rank

    classes = isotest.iso_class_count(graphs, closures)
    out.verdict("iso_class_count.exact", classes.exact)
    out.verdict("iso_class_count.at_least_bound", classes.count >= _class_bound(cons))
    if expect["classes"] is not None:
        out.verdict("iso_class_count.classes", classes.count == expect["classes"])
    out.counts["iso_class_count.classes"] = classes.count
    for (a, b), cert in sorted(classes.certificates.items()):
        out.counts[f"iso_class_count[{gens[a]},{gens[b]}].nodes"] = cert.nodes

    perm = np.random.default_rng(seed).permutation(cons.n)
    relabeled = graphs[0].relabeled(perm)
    cc_rel = coherent.wl_close(relabeled)
    out.verdict("relabeled.rank", cc_rel.rank == expect["rank"])
    out.counts["relabeled.rounds"] = cc_rel.rounds
    cert = isotest.are_isomorphic(graphs[0], relabeled, closures[0], cc_rel)
    f = cert.mapping
    out.verdict("relabeled.isomorphic", cert.kind == "isomorphic")
    out.verdict(
        "relabeled.witness_arc_by_arc",
        f is not None and np.array_equal(relabeled.arcs[np.ix_(f, f)], graphs[0].arcs),
    )
    out.seeded_counts["relabeled.nodes"] = cert.nodes
    return out


def algebra_plan(q: int, seed: int, expect: dict) -> Outcome:
    out = Outcome()
    cons = Construction(q, max_vertices=q**3)
    t = cons.table
    out.counts["construction.table_bytes"] = t.mult.nbytes + t.inv.nbytes
    out.verdict("build_K.order", len(cons.build_K()) == expect["k_order"])
    out.verdict("k_orbits.count", len(cons.k_orbits()) == expect["orbits"])

    ring = srings.SRing.from_construction(cons)
    tensor = srings.structure_constants(ring)
    consts = srings.verify_consts(ring, tensor)
    out.verdict("verify_consts", consts.ok)
    out.counts["verify_consts.checked"] = consts.checked
    for i in range(q):
        out.verdict(f"verify_transversal[{i}]", srings.verify_transversal(ring, i).ok)

    for i in cons.generators_I():
        looped = designs.verify_ddd(cons.build_cayley(i), t.coset_ids, expected=(0, q))
        out.verdict(f"verify_ddd[{i}].with_loops", looped.ok)
        # Without loops the cross-class counts include q - 1 (criterion 1b,
        # a documented fact), so the loopless report is data, not a verdict.
        loopless = designs.verify_ddd(
            cons.build_cayley(i, include_identity=False), t.coset_ids, expected=(0, q)
        )
        out.data[f"verify_ddd[{i}].loopless"] = {
            "cross_in": loopless.cross_in,
            "cross_out": loopless.cross_out,
        }

    pairs = 0
    for i in range(q):
        rep = designs.verify_design_iso(cons, i)
        out.verdict(f"verify_design_iso[{i}]", rep.crit_holds and rep.det_a_nonzero)
        pairs += rep.pairs_checked
    out.counts["designs.pairs_checked"] = pairs
    return out


class Workload(NamedTuple):
    plan: Callable[[int, int, dict], Outcome]
    q: int
    # seconds one plan took at the seed commit on a 2-core x86-64 VM; a run
    # repeats the plan round(--seconds / plan_seconds) times, at least once,
    # so both sides of a comparison do the same work whatever their speed
    plan_seconds: float
    seeded_tracer_counts: frozenset = frozenset()


WORKLOADS = {
    "verify-q5": Workload(verify_plan, 5, 10.0),
    "family-q7": Workload(family_plan, 7, 48.0, frozenset({"isotest.search_nodes"})),
    "algebra-q13": Workload(algebra_plan, 13, 26.0),
}


# -- traced layers -------------------------------------------------------------


def _observe_table(counts, args, result):
    table = args[0].table
    counts["construction.table_bytes"] += table.mult.nbytes + table.inv.nbytes


def _observe_configuration(counts, args, cc):
    counts["coherent.rounds"] += cc.rounds
    counts["coherent.rank"] += cc.rank
    counts["coherent.pair_recolorings"] += cc.rounds * cc.n * cc.n


def _observe_certificate(counts, args, cert):
    counts["isotest.search_nodes"] += cert.nodes


def _observe_design_iso(counts, args, rep):
    counts["designs.pairs_checked"] += rep.pairs_checked


# (owner, attribute, span name, observer)
LAYERS = [
    (Construction, "__init__", "construction.Construction", _observe_table),
    (Construction, "build_K", "construction.build_K", None),
    (Construction, "k_orbits", "construction.k_orbits", None),
    (Construction, "build_cayley", "construction.build_cayley", None),
    (srings, "structure_constants", "srings.structure_constants", None),
    (srings, "verify_consts", "srings.verify_consts", None),
    (srings, "verify_transversal", "srings.verify_transversal", None),
    (designs, "verify_ddd", "designs.verify_ddd", None),
    (designs, "verify_design_iso", "designs.verify_design_iso", _observe_design_iso),
    (coherent, "wl_close", "coherent.wl_close", _observe_configuration),
    (coherent, "wl_equivalent", "coherent.wl_equivalent", None),
    (coherent, "one_point_extension", "coherent.one_point_extension", _observe_configuration),
    (isotest, "iso_class_count", "isotest.iso_class_count", None),
    (isotest, "are_isomorphic", "isotest.are_isomorphic", _observe_certificate),
    (isotest, "automorphism_order", "isotest.automorphism_order", None),
    (suite, "run_suite", "suite.run_suite", None),
]

TRACED_COUNTS = [
    "construction.table_bytes",
    "designs.pairs_checked",
    "coherent.rounds",
    "coherent.rank",
    "coherent.pair_recolorings",
    "isotest.search_nodes",
]

# the suite checks that take measurable time at q = 5; the other twelve
# report 0.0 to 0.01 s in RunReport.timings, which rounds to milliseconds
SUITE_CHECKS = [
    "wl_closure",
    "wl_equivalence",
    "one_point_extension",
    "iso_classes",
    "reverse_pair_isomorphism",
    "automorphism_order",
]
