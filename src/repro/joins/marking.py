"""Conditions C1-C4 of Controlled-Replicate (Sections 7.4, 8 and 9).

The reducers of Controlled-Replicate's first round receive every
rectangle overlapping their cell ``c`` (via Split) and must decide which
of the rectangles *starting* in ``c`` to mark for replication.  The
paper marks the union ``uS_c`` of all *maximal* rectangle-sets satisfying

* **C1** — the set is consistent (its members satisfy every query
  predicate among its slots),
* **C2** — for every join edge from a slot inside the set to a slot
  outside it, the member at the inside slot can reach past the cell:
  it *crosses* the cell boundary for an overlap edge, or has another
  cell within distance ``d`` for a ``Ra(d)`` edge,
* **C3** — at least one such outside edge exists,
* **C4** — maximality (no qualifying superset).

Because every qualifying set extends to a maximal qualifying set, a
rectangle is marked **iff it belongs to some set satisfying C1-C3**, and
w.l.o.g. that witness set induces a *connected* subgraph of the join
graph containing the rectangle's slot (dropping foreign components never
invalidates C1-C3; see the correctness notes in DESIGN.md).  The marking
test is therefore an existence search: for each candidate rectangle, try
every connected proper slot-subset containing one of its slots and look
for one consistent embedding among the rectangles received at the cell.

The two C2 variants unify cleanly: with closed cell extents a rectangle
crosses the boundary iff its distance to the nearest other cell is 0, so
every outside edge imposes ``gap(u) <= d_edge`` with ``d_edge = 0`` for
overlap.  A slot with several outside edges must satisfy the smallest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.rectangle import Rect
from repro.grid.cell import Cell
from repro.grid.partitioning import GridPartitioning
from repro.index import make_index
from repro.kernels import transforms as _kt
from repro.kernels.batch import RectBatch
from repro.query.graph import JoinGraph
from repro.query.predicates import Overlap
from repro.query.query import Query, Triple

__all__ = ["MarkingEngine", "MarkingDecision"]


@dataclass(frozen=True)
class _Step:
    """One slot binding of the witness-embedding search."""

    slot: str
    anchor: Triple | None
    anchor_slot: str | None
    checks: tuple[tuple[Triple, str], ...]
    same_dataset: tuple[str, ...]
    #: the slot's dataset, resolved once at plan build (the embedding
    #: search visits steps far more often than plans are built)
    dataset: str = ""


@dataclass
class MarkingDecision:
    """Outcome of marking at one cell."""

    #: (dataset, rid) pairs to replicate (all start in the cell)
    marked: set[tuple[str, int]]
    #: candidate checks performed (compute-cost measure)
    ops: int
    #: the rectangles starting in the cell, in received order — exactly
    #: the ones the round-1 reducer must emit (tagged marked or not).
    #: ``None`` from a custom marking strategy; the reducer then
    #: recomputes ownership itself.
    starts_here: list[tuple[str, int, Rect]] | None = None


class MarkingEngine:
    """Implements the C1-C3 existence test for one query on one grid."""

    def __init__(
        self,
        query: Query,
        grid: GridPartitioning,
        index_kind: str = "grid",
        kernel: str = "python",
    ) -> None:
        self.query = query
        self.grid = grid
        self.index_kind = index_kind
        self.kernel = kernel
        self.graph = JoinGraph(query)
        self._subsets = {
            slot: self.graph.connected_subsets_containing(slot)
            for slot in query.slots
        }
        self._req_cache: dict[frozenset[str], dict[str, float]] = {}
        self._plan_cache: dict[tuple[frozenset[str], str], tuple[_Step, ...]] = {}

    # ------------------------------------------------------------------
    # Per-subset precomputation
    # ------------------------------------------------------------------
    def _requirements(self, subset: frozenset[str]) -> dict[str, float]:
        """Per-slot C2 gap bound: ``min`` distance over outside edges.

        ``inf`` means the slot has no outside edge (no constraint).
        """
        cached = self._req_cache.get(subset)
        if cached is not None:
            return cached
        reqs = {slot: math.inf for slot in subset}
        for t in self.graph.outside_triples(subset):
            inside = t.left if t.left in subset else t.right
            reqs[inside] = min(reqs[inside], t.predicate.distance)
        self._req_cache[subset] = reqs
        return reqs

    def _plan(self, subset: frozenset[str], start: str) -> tuple[_Step, ...]:
        """Connected binding order over ``subset`` starting at ``start``."""
        key = (subset, start)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        inside = self.graph.inside_triples(subset)
        order: list[str] = [start]
        placed = {start}
        while len(order) < len(subset):
            nxt = next(
                s
                for s in sorted(subset)
                if s not in placed
                and any(
                    t.touches(s) and t.other(s) in placed for t in inside
                )
            )
            order.append(nxt)
            placed.add(nxt)

        steps: list[_Step] = []
        bound: list[str] = []
        for slot in order:
            anchor: Triple | None = None
            anchor_slot: str | None = None
            checks: list[tuple[Triple, str]] = []
            for t in inside:
                if not t.touches(slot):
                    continue
                other = t.other(slot)
                if other not in bound:
                    continue
                if anchor is None:
                    anchor, anchor_slot = t, other
                else:
                    checks.append((t, other))
            same_dataset = tuple(
                s
                for s in bound
                if self.query.dataset_of(s) == self.query.dataset_of(slot)
            )
            steps.append(
                _Step(
                    slot=slot,
                    anchor=anchor,
                    anchor_slot=anchor_slot,
                    checks=tuple(checks),
                    same_dataset=same_dataset,
                    dataset=self.query.dataset_of(slot),
                )
            )
            bound.append(slot)
        plan = tuple(steps)
        self._plan_cache[key] = plan
        return plan

    # ------------------------------------------------------------------
    # The marking decision at one cell
    # ------------------------------------------------------------------
    def select_marked(
        self, cell: Cell, received: dict[str, list[tuple[int, Rect]]]
    ) -> MarkingDecision:
        """Which rectangles starting in ``cell`` must be replicated.

        Parameters
        ----------
        cell:
            The reducer's partition-cell.
        received:
            Rectangles split onto this cell, grouped by dataset.
        """
        indexes = {
            dataset: make_index(self.index_kind, kernel=self.kernel, pairs=rects)
            for dataset, rects in received.items()
        }

        # Per-rectangle C2 measure: distance to the nearest foreign cell,
        # plus the start-point owner id (reused for witness members
        # below).  The numpy kernel computes both columnarly per bag,
        # reusing the index's column arrays (same rects, same order).
        columnar = self.kernel == "numpy"
        # Nested per-dataset maps: the embedding search looks gaps up per
        # probe candidate, so ``gap[dataset][rid]`` avoids building a
        # ``(dataset, rid)`` tuple on every lookup in that hot loop.
        gap: dict[str, dict[int, float]] = {}
        owner: dict[str, dict[int, int]] = {}
        starts_here: list[tuple[str, int, Rect]] = []
        for dataset, rects in received.items():
            gap_d = gap[dataset] = {}
            own_d = owner[dataset] = {}
            if columnar and rects:
                batch = getattr(indexes[dataset], "batch", None)
                if batch is None:
                    batch = RectBatch.from_pairs(rects)
                gaps = _kt.min_gaps_to_other_cell(self.grid, batch, cell).tolist()
                cids = _kt.cell_ids_of_starts(self.grid, batch).tolist()
                for (rid, rect), g, cid in zip(rects, gaps, cids):
                    gap_d[rid] = g
                    own_d[rid] = cid
                    if cid == cell.cell_id:
                        starts_here.append((dataset, rid, rect))
            else:
                for rid, rect in rects:
                    gap_d[rid] = self.grid.min_gap_to_other_cell(rect, cell)
                    cid = self.grid.cell_of(rect).cell_id
                    own_d[rid] = cid
                    if cid == cell.cell_id:
                        starts_here.append((dataset, rid, rect))

        marked: set[tuple[str, int]] = set()
        ops = 0
        # Probe results are memoized across the witness searches of one
        # cell: the same (dataset, anchor rect, d) probe recurs across
        # candidates and subsets.  The memo carries scan positions, so
        # the searches still charge probes exactly as their lazy scalar
        # generators would (see ``probe_batch``).
        probe_cache: dict | None = {} if columnar else None
        # The subsets a slot can witness with are fixed per cell (they
        # depend only on which datasets sent candidates here), as are
        # their C2 requirement tables — hoisted out of the per-rectangle
        # loop.  Order and ops accounting are unchanged: the filter and
        # the requirement lookup never charged ops.
        dataset_of = self.query.dataset_of
        usable: dict[str, list] = {}
        for dataset, rid, rect in starts_here:
            if (dataset, rid) in marked:
                continue  # already part of an earlier witness
            witness = None
            rect_gap = gap[dataset][rid]
            for slot in self.query.slots_of_dataset(dataset):
                cands = usable.get(slot)
                if cands is None:
                    cands = usable[slot] = [
                        (subset, self._requirements(subset), self._plan(subset, slot))
                        for subset in self._subsets[slot]
                        # skip subsets where some slot has no candidates
                        if all(dataset_of(s) in received for s in subset)
                    ]
                for subset, reqs, plan in cands:
                    if rect_gap > reqs[slot]:
                        continue  # the candidate itself fails C2 here
                    witness, probe_ops = self._find_embedding(
                        subset,
                        slot,
                        (rid, rect),
                        received,
                        indexes,
                        gap,
                        probe_cache,
                        reqs,
                        plan,
                    )
                    ops += probe_ops
                    if witness is not None:
                        break
                if witness is not None:
                    break
            if witness is None:
                continue
            # Every member of a qualifying set is itself marked by the
            # paper's rule; record the ones this cell is responsible for.
            for w_slot, (w_rid, __w_rect) in witness.items():
                w_dataset = self.query.dataset_of(w_slot)
                if owner[w_dataset][w_rid] == cell.cell_id:
                    marked.add((w_dataset, w_rid))
        ops += sum(idx.probes for idx in indexes.values())
        return MarkingDecision(marked=marked, ops=ops, starts_here=starts_here)

    # ------------------------------------------------------------------
    def _find_embedding(
        self,
        subset: frozenset[str],
        start: str,
        fixed: tuple[int, Rect],
        received: dict[str, list[tuple[int, Rect]]],
        indexes,
        gap: dict[str, dict[int, float]],
        probe_cache: dict | None = None,
        reqs: dict[str, float] | None = None,
        plan: tuple | None = None,
    ) -> tuple[dict[str, tuple[int, Rect]] | None, int]:
        """First consistent C2-respecting embedding of ``subset``.

        ``fixed`` is pinned at slot ``start``; other slots draw from the
        received bags.  Returns ``(assignment | None, candidate_checks)``.

        With ``probe_cache`` (numpy kernel), probes run eagerly through
        :meth:`GridIndex.probe_batch` and are memoized; probe accounting
        stays *lazy-exact*: a search abandoned after candidate ``j``
        (witness found) charges only the slots scanned up to ``j``, as
        the scalar generator would.
        """
        if reqs is None:
            reqs = self._requirements(subset)
        if plan is None:
            plan = self._plan(subset, start)
        assignment: dict[str, tuple[int, Rect]] = {start: fixed}
        ops = 0

        def bind(depth: int) -> bool:
            nonlocal ops
            if depth == len(plan):
                return True
            step = plan[depth]
            dataset = step.dataset
            assert step.anchor is not None  # depth 0 is the fixed start
            anchor_rect = assignment[step.anchor_slot][1]
            d = step.anchor.predicate.distance
            idx = indexes[dataset]
            slot = step.slot
            req = reqs[slot]
            gap_d = gap[dataset]
            same_dataset = step.same_dataset
            step_checks = step.checks
            anchor_holds = step.anchor.holds_with
            # A strict-``Overlap`` anchor is already settled by the
            # probe: the index yields exactly the entries whose closed
            # extents intersect the (unenlarged) anchor box, which IS
            # the predicate.  The candidate check (and its op charge)
            # still runs; only the redundant re-test is skipped.
            anchor_settled = type(step.anchor.predicate) is Overlap
            if probe_cache is not None and getattr(idx, "batch", None) is not None:
                # Memoized eager probe.  Same candidate body as the
                # scalar loop below; only the probe accounting differs —
                # it is settled when the scan is abandoned or exhausted.
                key = (dataset, id(anchor_rect), d)
                hit = probe_cache.get(key)
                if hit is None:
                    hit = probe_cache[key] = idx.probe_batch(anchor_rect, d)
                cands, pos_list, scanned = hit
                for j, (rid, rect) in enumerate(cands):
                    ops += 1
                    if not (
                        anchor_settled
                        or anchor_holds(slot, rect, anchor_rect)
                    ):
                        continue
                    if gap_d[rid] > req:
                        continue  # fails C2 at this slot
                    if any(assignment[s][0] == rid for s in same_dataset):
                        continue
                    ok = True
                    for triple, other in step_checks:
                        ops += 1
                        if not triple.holds_with(
                            slot, rect, assignment[other][1]
                        ):
                            ok = False
                            break
                    if not ok:
                        continue
                    assignment[slot] = (rid, rect)
                    if bind(depth + 1):
                        # The scalar generator is abandoned here, having
                        # scanned through this candidate's bucket slot.
                        idx.probes += pos_list[j] + 1
                        return True
                    del assignment[slot]
                idx.probes += scanned
                return False
            for entry in idx.search(anchor_rect, d):
                rid, rect = entry.payload, entry.rect
                ops += 1
                if not (
                    anchor_settled
                    or anchor_holds(slot, rect, anchor_rect)
                ):
                    continue
                if gap_d[rid] > req:
                    continue  # fails C2 at this slot
                if any(assignment[s][0] == rid for s in same_dataset):
                    continue
                ok = True
                for triple, other in step_checks:
                    ops += 1
                    if not triple.holds_with(slot, rect, assignment[other][1]):
                        ok = False
                        break
                if not ok:
                    continue
                assignment[slot] = (rid, rect)
                if bind(depth + 1):
                    return True
                del assignment[slot]
            return False

        if bind(1):
            return dict(assignment), ops
        return None, ops
