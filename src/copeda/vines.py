"""C-vine and D-vine pair-copula constructions.

Structure selection is greedy on empirical Kendall tau weights: C-vine roots
maximize the summed absolute tau to the other nodes (re-selected per tree on
the h-transformed data); the D-vine path approximately maximizes the summed
absolute tau along consecutive pairs via cheapest insertion on edge costs
1 - |tau|.  Per edge, an independence pre-test decides between the product
copula and CvM goodness-of-fit selection among the candidate families, and
fitting truncates when AIC or BIC stops improving.  Simulation uses the
conditional distribution method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .copulas import (
    BivariateCopula,
    CopulaFamily,
    clip_tau,
    copula_h,
    copula_hinv,
    copula_loglik,
    product,
)
from .dependence import gof_select_copula, indep_test_cvm, kendall_tau_matrix


class VineType(str, Enum):
    CVINE = "cvine"
    DVINE = "dvine"


@dataclass(frozen=True)
class RVineModel:
    """A fitted C-vine or D-vine.

    ``order`` is the root sequence (C-vine) or path sequence (D-vine) over
    the original variable indices.  ``trees[j]`` holds the ``n - 1 - j``
    pair copulas of tree ``j + 1``; every tree past ``trunc_level`` (1-based)
    is all product copulas.
    """

    vine_type: VineType
    order: tuple[int, ...]
    trees: tuple[tuple[BivariateCopula, ...], ...]
    trunc_level: int

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise ValueError("order must be a permutation of 0..n-1")
        if len(self.trees) != max(n - 1, 0):
            raise ValueError(f"expected {n - 1} trees, got {len(self.trees)}")
        for j, tree in enumerate(self.trees):
            if len(tree) != n - 1 - j:
                raise ValueError(f"tree {j + 1} must hold {n - 1 - j} copulas")
            if j >= self.trunc_level:
                if any(c.family is not CopulaFamily.PRODUCT for c in tree):
                    raise ValueError(
                        f"tree {j + 1} is past trunc_level {self.trunc_level} "
                        "and must be all product")
        if not 0 <= self.trunc_level <= max(n - 1, 0):
            raise ValueError("trunc_level out of range")

    @property
    def dim(self) -> int:
        return len(self.order)


def select_cvine_order(U) -> tuple[int, ...]:
    """Greedy C-vine root sequence.

    The first root maximizes the summed absolute empirical tau to the other
    variables; subsequent roots repeat the rule on data h-transformed by
    tau-inverted normal copulas, a lightweight stand-in for the fitted pair
    copulas used during :func:`fit_vine`.  Ties break to the lowest index.
    """
    U = np.asarray(U, dtype=float)
    n = U.shape[1]
    if n < 2:
        return tuple(range(n))
    from .copulas import normal, tau_to_parameter

    Z = U.copy()
    remaining = list(range(n))
    order: list[int] = []
    while len(remaining) > 1:
        taus = kendall_tau_matrix(Z[:, remaining])
        sums = np.abs(taus - np.eye(len(remaining))).sum(axis=1)
        root = remaining[int(np.argmax(sums))]
        others = [i for i in remaining if i != root]
        for other in others:
            tau = clip_tau(taus[remaining.index(root), remaining.index(other)])
            if tau != 0.0:
                c = tau_to_parameter(CopulaFamily.NORMAL, tau)
                if c.family is CopulaFamily.NORMAL:
                    Z[:, other] = copula_h(c, Z[:, other], Z[:, root])
        order.append(root)
        remaining = others
    order.extend(remaining)
    return tuple(order)


def select_dvine_order(U) -> tuple[int, ...]:
    """D-vine path by cheapest insertion on edge costs 1 - |tau|.

    Starts from the highest-|tau| pair and inserts each remaining node where
    the open-path cost increase is smallest.  Ties break to the lowest
    index; the returned path is canonicalized so its first endpoint is the
    smaller variable index.
    """
    U = np.asarray(U, dtype=float)
    n = U.shape[1]
    if n < 2:
        return tuple(range(n))
    cost = 1.0 - np.abs(kendall_tau_matrix(U))
    np.fill_diagonal(cost, np.inf)
    # initial edge: cheapest cost, ties by lowest (i, j)
    best = (np.inf, 0, 1)
    for i in range(n):
        for j in range(i + 1, n):
            if cost[i, j] < best[0]:
                best = (cost[i, j], i, j)
    path = [best[1], best[2]]
    unplaced = [k for k in range(n) if k not in path]
    while unplaced:
        choice = None  # (delta, node, position)
        for node in unplaced:
            for pos in range(len(path) + 1):
                if pos == 0:
                    delta = cost[node, path[0]]
                elif pos == len(path):
                    delta = cost[path[-1], node]
                else:
                    delta = (cost[path[pos - 1], node] + cost[node, path[pos]]
                             - cost[path[pos - 1], path[pos]])
                if choice is None or delta < choice[0] - 1e-15:
                    choice = (delta, node, pos)
        _, node, pos = choice
        path.insert(pos, node)
        unplaced.remove(node)
    if path[0] > path[-1]:
        path.reverse()
    return tuple(path)


def _criterion_penalty(criterion: str, k: int, m: int) -> float:
    if criterion == "aic":
        return 2.0 * k
    if criterion == "bic":
        return k * math.log(m)
    raise ValueError(f"unknown criterion: {criterion}")


def _fit_edge(u, v, candidates, sig_level, replicates, rng):
    result = indep_test_cvm(u, v, replicates=replicates, rng=rng,
                            sig_level=sig_level)
    if result.independent:
        return product()
    return gof_select_copula(u, v, candidates)


def fit_vine(U, vine_type: VineType, candidates, sig_level: float = 0.01,
             criterion: str = "aic", rng: np.random.Generator | None = None,
             indep_replicates: int = 100) -> RVineModel:
    """Fit a C-vine or D-vine tree by tree.

    Per edge, an independence test at ``sig_level`` decides between the
    product copula and CvM selection among ``candidates``.  With
    ``criterion`` "aic" or "bic" the cumulative information criterion is
    evaluated after each tree and fitting stops as soon as it fails to
    decrease strictly; the offending tree and all deeper trees become
    product copulas.  ``criterion="none"`` fits all trees.
    """
    if rng is None:
        rng = np.random.default_rng()
    U = np.asarray(U, dtype=float)
    vine_type = VineType(vine_type)
    n = U.shape[1]
    if n < 2:
        return RVineModel(vine_type, tuple(range(n)), (), 0)
    candidates = [CopulaFamily(c) for c in candidates
                  if CopulaFamily(c) is not CopulaFamily.PRODUCT]
    if vine_type is VineType.CVINE:
        return _fit_cvine(U, candidates, sig_level, criterion, rng,
                          indep_replicates)
    return _fit_dvine(U, candidates, sig_level, criterion, rng,
                      indep_replicates)


def _product_tail(n: int, trees: list[list[BivariateCopula]]):
    while len(trees) < n - 1:
        j = len(trees)
        trees.append([product()] * (n - 1 - j))


def _fit_cvine(U, candidates, sig_level, criterion, rng, replicates):
    m, n = U.shape
    Z = U.copy()
    remaining = list(range(n))
    order: list[int] = []
    trees: list[list[BivariateCopula]] = []
    loglik_cum = 0.0
    k_cum = 0
    crit_prev = 0.0
    trunc_level = n - 1
    for level in range(n - 1):
        taus = kendall_tau_matrix(Z[:, remaining])
        sums = np.abs(taus - np.eye(len(remaining))).sum(axis=1)
        root = remaining[int(np.argmax(sums))]
        others = [i for i in remaining if i != root]
        edges = [_fit_edge(Z[:, o], Z[:, root], candidates, sig_level,
                           replicates, rng) for o in others]
        tree_ll = sum(copula_loglik(c, np.column_stack([Z[:, o], Z[:, root]]))
                      for c, o in zip(edges, others)
                      if c.family is not CopulaFamily.PRODUCT)
        tree_k = sum(c.n_params for c in edges)
        if criterion != "none":
            crit_new = (-2.0 * (loglik_cum + tree_ll)
                        + _criterion_penalty(criterion, k_cum + tree_k, m))
            if crit_new >= crit_prev:
                trunc_level = level
                break
            crit_prev = crit_new
        loglik_cum += tree_ll
        k_cum += tree_k
        order.append(root)
        trees.append(edges)
        for c, o in zip(edges, others):
            if c.family is not CopulaFamily.PRODUCT:
                Z[:, o] = copula_h(c, Z[:, o], Z[:, root])
        remaining = others
    order.extend(sorted(remaining))
    _product_tail(n, trees)
    return RVineModel(VineType.CVINE, tuple(order),
                      tuple(tuple(t) for t in trees), trunc_level)


def _fit_dvine(U, candidates, sig_level, criterion, rng, replicates):
    m, n = U.shape
    order = select_dvine_order(U)
    cols = U[:, order]
    # a[i] = F(x_i | mid), b[i] = F(x_{i+j} | mid) for the current tree j
    a = [cols[:, i] for i in range(n - 1)]
    b = [cols[:, i + 1] for i in range(n - 1)]
    trees: list[list[BivariateCopula]] = []
    loglik_cum = 0.0
    k_cum = 0
    crit_prev = 0.0
    trunc_level = n - 1
    for j in range(n - 1):
        edges = [_fit_edge(a[i], b[i], candidates, sig_level, replicates, rng)
                 for i in range(n - 1 - j)]
        tree_ll = sum(copula_loglik(c, np.column_stack([a[i], b[i]]))
                      for i, c in enumerate(edges)
                      if c.family is not CopulaFamily.PRODUCT)
        tree_k = sum(c.n_params for c in edges)
        if criterion != "none":
            crit_new = (-2.0 * (loglik_cum + tree_ll)
                        + _criterion_penalty(criterion, k_cum + tree_k, m))
            if crit_new >= crit_prev:
                trunc_level = j
                break
            crit_prev = crit_new
        loglik_cum += tree_ll
        k_cum += tree_k
        trees.append(edges)
        if j < n - 2:
            a_next = [copula_h(edges[i], a[i], b[i]) for i in range(n - 2 - j)]
            b_next = [copula_h(edges[i + 1], b[i + 1], a[i + 1])
                      for i in range(n - 2 - j)]
            a, b = a_next, b_next
    _product_tail(n, trees)
    return RVineModel(VineType.DVINE, order,
                      tuple(tuple(t) for t in trees), trunc_level)


def vine_loglik(model: RVineModel, U) -> float:
    """Sum of pair-copula log likelihoods over all non-product edges."""
    U = np.asarray(U, dtype=float)
    n = model.dim
    if U.shape[1] != n:
        raise ValueError("dimension mismatch between model and data")
    if n < 2:
        return 0.0
    cols = U[:, list(model.order)]
    total = 0.0
    if model.vine_type is VineType.CVINE:
        Z = cols.copy()
        for j, tree in enumerate(model.trees):
            root = Z[:, j]
            for e, c in enumerate(tree):
                i = j + 1 + e
                if c.family is not CopulaFamily.PRODUCT:
                    total += copula_loglik(c, np.column_stack([Z[:, i], root]))
                    Z[:, i] = copula_h(c, Z[:, i], root)
        return total
    a = [cols[:, i] for i in range(n - 1)]
    b = [cols[:, i + 1] for i in range(n - 1)]
    for j, tree in enumerate(model.trees):
        for i, c in enumerate(tree):
            if c.family is not CopulaFamily.PRODUCT:
                total += copula_loglik(c, np.column_stack([a[i], b[i]]))
        if j < n - 2:
            a_next = [copula_h(tree[i], a[i], b[i]) for i in range(n - 2 - j)]
            b_next = [copula_h(tree[i + 1], b[i + 1], a[i + 1])
                      for i in range(n - 2 - j)]
            a, b = a_next, b_next
    return total


def vine_sample(model: RVineModel, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``m`` rows with uniform margins and the vine's dependence."""
    n = model.dim
    W = rng.random((m, n))
    if n < 2:
        return W
    X = np.empty_like(W)
    if model.vine_type is VineType.CVINE:
        # W[:, k] is F(x_k | x_0..x_{k-1}) by construction; invert outward
        X[:, 0] = W[:, 0]
        for i in range(1, n):
            t = W[:, i]
            for k in range(i - 1, -1, -1):
                c = model.trees[k][i - k - 1]
                if c.family is not CopulaFamily.PRODUCT:
                    t = copula_hinv(c, t, W[:, k])
            X[:, i] = t
    else:
        X[:, 0] = W[:, 0]
        # back[k] = F(x_k | x_{k+1}..x_{i-1}) for the already sampled prefix
        back = [X[:, 0]]
        for i in range(1, n):
            t = W[:, i]
            inner = [t]  # inner[k+1] = F(x_i | x_{k+1}..x_{i-1}) after peel k
            for k in range(i):
                c = model.trees[i - k - 1][k]
                if c.family is not CopulaFamily.PRODUCT:
                    t = copula_hinv(c, t, back[k])
                inner.append(t)
            X[:, i] = t
            if i < n - 1:
                new_back = []
                for k in range(i):
                    c = model.trees[i - k - 1][k]
                    if c.family is CopulaFamily.PRODUCT:
                        new_back.append(back[k])
                    else:
                        new_back.append(copula_h(c, back[k], inner[k + 1]))
                new_back.append(X[:, i])
                back = new_back
    out = np.empty_like(X)
    out[:, list(model.order)] = X
    return out


def describe_vine(model: RVineModel) -> str:
    """Readable text form of the vine: order, truncation and per-tree copulas."""
    lines = [f"{model.vine_type.value} order="
             f"{','.join(str(i) for i in model.order)} "
             f"trunc_level={model.trunc_level}"]
    for j, tree in enumerate(model.trees):
        parts = []
        for c in tree:
            if c.family is CopulaFamily.PRODUCT:
                parts.append("product")
            elif c.family is CopulaFamily.STUDENT:
                parts.append(f"student(rho={c.theta:.6g},nu={c.nu:.6g})")
            else:
                parts.append(f"{c.family.value}(theta={c.theta:.6g})")
        lines.append(f"tree {j + 1}: " + " ".join(parts))
    return "\n".join(lines)
