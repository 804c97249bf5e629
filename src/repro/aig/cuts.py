"""Cut computation on AIGs.

Two flavours, matching what the synthesis passes need:

* :func:`enumerate_cuts` — classic bottom-up k-feasible cut enumeration with
  a per-node cut limit, used by ``rewrite`` (k = 4).
* :func:`reconvergence_cut` — Mishchenko-style reconvergence-driven cut
  growing, used by ``refactor`` and ``resub`` for larger windows (k = 8-12).
"""

from __future__ import annotations

from typing import Optional

from repro.aig.aig import Aig, lit_var


class CutManager:
    """Lazily computes and memoizes k-feasible cuts per node.

    Memoized entries are never recomputed.  During an in-place optimization
    pass a node's cuts can go stale — a leaf can drop out of its cone — so
    such a pass must tolerate a cut whose cone escapes its leaves (see the
    pass-ordering note in ``repro.synth.rewrite``).
    """

    def __init__(self, aig: Aig, k: int = 4, limit: int = 8):
        self.aig = aig
        self.k = k
        self.limit = limit
        self._memo: dict[int, list[tuple[int, ...]]] = {}

    def cuts(self, var: int) -> list[tuple[int, ...]]:
        """All stored cuts of ``var`` (sorted leaf tuples), trivial cut first."""
        memo = self._memo
        cached = memo.get(var)
        if cached is not None:
            return cached
        aig = self.aig
        # Iterative post-order computation to avoid deep recursion.
        stack = [var]
        while stack:
            v = stack[-1]
            if v in memo:
                stack.pop()
                continue
            if not aig.is_and(v):
                memo[v] = [(v,)]
                stack.pop()
                continue
            f0, f1 = aig.fanins(v)
            c0, c1 = lit_var(f0), lit_var(f1)
            missing = [c for c in (c0, c1) if c not in memo]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            memo[v] = self._merge(v, memo[c0], memo[c1])
        return memo[var]

    def _merge(
        self,
        var: int,
        cuts0: list[tuple[int, ...]],
        cuts1: list[tuple[int, ...]],
    ) -> list[tuple[int, ...]]:
        seen: set[tuple[int, ...]] = set()
        merged: list[tuple[int, ...]] = []
        for cut0 in cuts0:
            for cut1 in cuts1:
                union = tuple(sorted(set(cut0) | set(cut1)))
                if len(union) > self.k or union in seen:
                    continue
                seen.add(union)
                merged.append(union)
        # Drop dominated cuts (a cut is dominated if a subset cut exists).
        merged.sort(key=len)
        kept: list[tuple[int, ...]] = []
        for cut in merged:
            cut_set = set(cut)
            if any(set(k) <= cut_set for k in kept):
                continue
            kept.append(cut)
            if len(kept) >= self.limit:
                break
        return [(var,)] + kept


def enumerate_cuts(
    aig: Aig, k: int = 4, limit: int = 8
) -> dict[int, list[tuple[int, ...]]]:
    """All k-feasible cuts for every live AND node (convenience wrapper)."""
    manager = CutManager(aig, k=k, limit=limit)
    return {var: manager.cuts(var) for var in aig.topological_ands()}


def reconvergence_cut(
    aig: Aig, root: int, max_leaves: int = 8, max_visits: int = 200
) -> tuple[int, ...]:
    """Grow a reconvergence-driven cut of at most ``max_leaves`` leaves.

    Starting from the root's fanins, repeatedly expands the leaf whose
    replacement by its own fanins increases the leaf count the least
    (preferring expansions that *reduce* it, i.e. reconvergence).  Stops when
    no expansion fits the leaf budget.
    """
    if not aig.is_and(root):
        return (root,)
    f0, f1 = aig.fanins(root)
    leaves = {lit_var(f0), lit_var(f1)}
    visits = 0
    while visits < max_visits:
        visits += 1
        best_leaf: Optional[int] = None
        best_cost = None
        # sorted(): ties on cost must break by node id, not set hashing —
        # the chosen expansion decides the final cut.
        for leaf in sorted(leaves):
            if not aig.is_and(leaf):
                continue
            g0, g1 = aig.fanins(leaf)
            candidates = {lit_var(g0), lit_var(g1)}
            new_size = len(leaves) - 1 + len(candidates - (leaves - {leaf}))
            cost = new_size - len(leaves)
            if new_size > max_leaves:
                continue
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_leaf = leaf
        if best_leaf is None:
            break
        g0, g1 = aig.fanins(best_leaf)
        leaves.discard(best_leaf)
        leaves.add(lit_var(g0))
        leaves.add(lit_var(g1))
        if best_cost is not None and best_cost > 0 and len(leaves) >= max_leaves:
            break
    return tuple(sorted(leaves))
