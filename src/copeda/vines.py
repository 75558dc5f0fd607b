"""C-vine and D-vine pair-copula constructions.

Structure selection is greedy on empirical Kendall tau weights: C-vine roots
maximize the summed absolute tau to the other nodes (re-selected per tree on
the h-transformed data); the D-vine path approximately maximizes the summed
absolute tau along consecutive pairs via cheapest insertion on edge costs
1 - |tau|.  Per edge, the rank CvM independence test, which draws no random
numbers, decides between the product copula and CvM goodness-of-fit
selection among the candidate families, and fitting truncates when AIC or
BIC stops improving.

Fitting, ``vine_loglik`` and ``vine_sample`` share one edge layout per vine
type, stated in ``RVineModel``: the tree walkers ``_CVineTrees`` and
``_DVineTrees`` h-transform the data tree by tree, and sampling by the
conditional distribution method (Aas, Czado, Frigessi & Bakken 2009,
Algorithms 1-2) inverts the same edges with h^-1.  The product copula's h
and h^-1 are the identity; ``_h`` and ``_hinv`` skip them for every caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .copulas import (
    BivariateCopula,
    CopulaFamily,
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
    is all product copulas.  With j counted from 0, the edges of tree j are:

    - C-vine: root ``order[j]`` paired with each variable o of
      ``order[j + 1:]`` in ascending index, the copula of
      (F(x_o | x_order[:j]), F(x_root | x_order[:j]));
    - D-vine: edge i pairs path positions i and i + j + 1, the copula of
      (F(x_a | between), F(x_b | between)) for a = ``order[i]``,
      b = ``order[i + j + 1]`` and the path variables between them.
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


# bound once: on CPython 3.11 an enum member lookup costs about ten global reads
_PRODUCT = CopulaFamily.PRODUCT


def _h(c: BivariateCopula, u, v):
    """h(u | v) of pair copula ``c``; the product copula's is ``u`` itself."""
    return u if c.family is _PRODUCT else copula_h(c, u, v)


def _hinv(c: BivariateCopula, p, v):
    """Inverse of ``_h`` in its first argument."""
    return p if c.family is _PRODUCT else copula_hinv(c, p, v)


class _CVineTrees:
    """Tree j pairs root j with every remaining variable, in ascending index.

    The roots are ``order`` when one is given; fitting picks each as the
    remaining variable with the largest summed absolute tau to the others
    on the current pseudo-observations, ties to the lowest index.  After
    tree j, ``cols[o]`` holds F(x_o | roots 0..j) and a root's column keeps
    F(x_root | earlier roots).
    """

    def __init__(self, U, order=None):
        self.cols = list(U.T)
        self.given = order
        self.remaining = list(range(U.shape[1]))
        self.roots: list[int] = []

    def pairs(self):
        if self.given is not None:
            self.root = self.given[len(self.roots)]
        else:
            taus = kendall_tau_matrix(
                np.column_stack([self.cols[i] for i in self.remaining]))
            sums = np.abs(taus - np.eye(len(self.remaining))).sum(axis=1)
            self.root = self.remaining[int(np.argmax(sums))]
        self.others = [i for i in self.remaining if i != self.root]
        return [(self.cols[o], self.cols[self.root]) for o in self.others]

    def advance(self, edges):
        for c, o in zip(edges, self.others):
            self.cols[o] = _h(c, self.cols[o], self.cols[self.root])
        self.roots.append(self.root)
        self.remaining = self.others

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(self.roots + sorted(self.remaining))


class _DVineTrees:
    """Tree j pairs path positions i and i + j + 1 given the nodes between.

    ``a[i]`` is F(x_i | between) and ``b[i]`` is F(x_{i+j+1} | between).
    """

    def __init__(self, U, order=None):
        self.order = select_dvine_order(U) if order is None else order
        cols = U[:, list(self.order)]
        self.a = [cols[:, i] for i in range(U.shape[1] - 1)]
        self.b = [cols[:, i + 1] for i in range(U.shape[1] - 1)]

    def pairs(self):
        return list(zip(self.a, self.b))

    def advance(self, edges):
        k = len(self.a) - 1
        a = [_h(edges[i], self.a[i], self.b[i]) for i in range(k)]
        b = [_h(edges[i + 1], self.b[i + 1], self.a[i + 1]) for i in range(k)]
        self.a, self.b = a, b


_TREES = {VineType.CVINE: _CVineTrees, VineType.DVINE: _DVineTrees}


def fit_vine(U, vine_type: VineType, candidates, sig_level: float = 0.01,
             criterion: str = "aic") -> RVineModel:
    """Fit a C-vine or D-vine tree by tree.

    Per edge, ``indep_test_cvm`` at ``sig_level`` decides between the
    product copula and CvM selection among ``candidates``.  With
    ``criterion`` "aic" or "bic" the cumulative information criterion is
    evaluated after each tree and fitting stops as soon as it fails to
    decrease strictly; the offending tree and all deeper trees become
    product copulas.  ``criterion="none"`` fits all trees.
    """
    U = np.asarray(U, dtype=float)
    vine_type = VineType(vine_type)
    m, n = U.shape
    if n < 2:
        return RVineModel(vine_type, tuple(range(n)), (), 0)
    candidates = [CopulaFamily(c) for c in candidates
                  if CopulaFamily(c) is not CopulaFamily.PRODUCT]
    walk = _TREES[vine_type](U)
    trees: list[list[BivariateCopula]] = []
    loglik_cum = 0.0
    k_cum = 0
    crit_prev = 0.0
    trunc_level = n - 1
    for level in range(n - 1):
        pairs = walk.pairs()
        edges = [product() if indep_test_cvm(u, v, sig_level).independent
                 else gof_select_copula(u, v, candidates) for u, v in pairs]
        tree_ll = sum(copula_loglik(c, np.column_stack(pair))
                      for c, pair in zip(edges, pairs)
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
        trees.append(edges)
        walk.advance(edges)
    trees += [[product()] * (n - 1 - j) for j in range(len(trees), n - 1)]
    return RVineModel(vine_type, walk.order, tuple(map(tuple, trees)),
                      trunc_level)


def vine_loglik(model: RVineModel, U) -> float:
    """Sum of pair-copula log likelihoods over all non-product edges."""
    U = np.asarray(U, dtype=float)
    n = model.dim
    if U.shape[1] != n:
        raise ValueError("dimension mismatch between model and data")
    if n < 2:
        return 0.0
    walk = _TREES[model.vine_type](U, model.order)
    total = 0.0
    for tree in model.trees:
        for c, pair in zip(tree, walk.pairs()):
            if c.family is not CopulaFamily.PRODUCT:
                total += copula_loglik(c, np.column_stack(pair))
        walk.advance(tree)
    return total


def vine_sample(model: RVineModel, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``m`` rows with uniform margins and the vine's dependence."""
    n = model.dim
    W = rng.random((m, n))
    if n < 2:
        return W
    # column k of W lands at variable order[k]
    cols = dict(zip(model.order, W.T))
    if model.vine_type is VineType.CVINE:
        # W[:, k] plays F(x_order[k] | x_order[:k]), the column the fitting
        # walk leaves for order[k]; undo its trees last to first
        later = [model.order[-1]]
        for root, tree in zip(model.order[-2::-1], model.trees[::-1]):
            for c, o in zip(tree, sorted(later)):
                cols[o] = _hinv(c, cols[o], cols[root])
            later.append(root)
    else:
        # path positions: back[k] = F(x_k | x_{k+1}..x_{i-1}) for the
        # already sampled prefix
        back = [W[:, 0]]
        for i in range(1, n):
            edges = [model.trees[i - k - 1][k] for k in range(i)]
            inner = [W[:, i]]  # inner[k+1] = F(x_i | x_{k+1}..x_{i-1})
            for c, b in zip(edges, back):
                inner.append(_hinv(c, inner[-1], b))
            cols[model.order[i]] = inner[-1]
            if i < n - 1:
                back = [_h(c, b, u) for c, b, u in zip(edges, back, inner[1:])]
                back.append(inner[-1])
    out = np.empty_like(W)
    for i, col in cols.items():
        out[:, i] = col
    return out


def describe_vine(model: RVineModel) -> str:
    """Readable text form of the vine: order, truncation and per-tree copulas."""
    lines = [f"{model.vine_type.value} order="
             f"{','.join(str(i) for i in model.order)} "
             f"trunc_level={model.trunc_level}"]
    for j, tree in enumerate(model.trees):
        lines.append(f"tree {j + 1}: " + " ".join(map(str, tree)))
    return "\n".join(lines)
