"""C-vine and D-vine pair-copula constructions.

Structure selection is greedy on empirical Kendall tau weights: C-vine roots
maximize the summed absolute tau to the other nodes (re-selected per tree on
the h-transformed data); the D-vine path approximately maximizes the summed
absolute tau along consecutive pairs via cheapest insertion on edge costs
1 - |tau|.  For each edge, the rank CvM independence test, which draws no
random numbers and runs once per tree over all of the tree's edges,
decides between the product copula and CvM goodness-of-fit selection among
the candidate families.  Fitting truncates when AIC or BIC stops
improving: the model keeps the trees before that one, and every pair past
them is independent given its conditioning set.  A tree is its columns
and its edges as column index pairs (f, s), as the pre-test and the tau
kernel take them.  GoF moment-fits edge (f, s) from entry (f, s) of a tau
matrix the structure selection already has: each C-vine tree's
root-selection matrix, and the D-vine path's on tree 1.  A deeper D-vine
tree gets its dependent edges' taus from one ``_tau_matrix`` call.  The
structure scores read each unordered pair's tau in ascending index order.

Fitting, ``vine_loglik`` and ``vine_sample`` share one edge layout per vine
type, stated in ``RVineModel``: the tree walkers ``_CVineTrees`` and
``_DVineTrees`` h-transform the data tree by tree, and sampling by the
conditional distribution method (Aas, Czado, Frigessi & Bakken 2009,
Algorithms 1-2) inverts the same edges with h^-1.  The product copula's h
and h^-1 are the identity; ``_h`` and ``_hinv`` skip them for every caller,
and a truncated vine's missing trees are never walked.
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
from .dependence import (_symmetric_taus, _tau_matrix, gof_select_copula,
                         indep_tests_cvm, kendall_tau_matrix)


class VineType(str, Enum):
    CVINE = "cvine"
    DVINE = "dvine"


@dataclass(frozen=True)
class RVineModel:
    """A fitted C-vine or D-vine, truncated after its last fitted tree.

    ``order`` is the root sequence (C-vine) or path sequence (D-vine) over
    the original variable indices.  ``trees[j]`` holds the ``n - 1 - j``
    pair copulas of tree ``j + 1``.  The truncation level ``trunc_level`` is
    the number of trees, at most ``n - 1``; every pair past the last tree
    is independent given its conditioning set, as if its copula were the
    product.  With j counted from 0, the edges of tree j are:

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

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise ValueError("order must be a permutation of 0..n-1")
        if len(self.trees) > max(n - 1, 0):
            raise ValueError(f"at most {n - 1} trees, got {len(self.trees)}")
        for j, tree in enumerate(self.trees):
            if len(tree) != n - 1 - j:
                raise ValueError(f"tree {j + 1} must hold {n - 1 - j} copulas")

    @property
    def dim(self) -> int:
        return len(self.order)

    @property
    def trunc_level(self) -> int:
        return len(self.trees)


def _dvine_path(taus: np.ndarray) -> tuple[int, ...]:
    """D-vine path by cheapest insertion on edge costs 1 - |tau|, from the
    (n, n) tau matrix of a sample of n >= 2 variables; pair {i, j}, i < j,
    costs by entry (i, j) in either direction.

    Starts from the highest-|tau| pair and inserts each remaining node where
    the open-path cost increase is smallest.  Ties break to the lowest
    index; the returned path is canonicalized so its first endpoint is the
    smaller variable index.
    """
    n = taus.shape[0]
    cost = 1.0 - np.abs(_symmetric_taus(taus))
    np.fill_diagonal(cost, np.inf)
    # Python floats: the same IEEE sums as numpy scalars, indexed faster
    cost = cost.tolist()
    # initial edge: cheapest cost, ties by lowest (i, j)
    best = (np.inf, 0, 1)
    for i in range(n):
        for j in range(i + 1, n):
            if cost[i][j] < best[0]:
                best = (cost[i][j], i, j)
    path = [best[1], best[2]]
    unplaced = [k for k in range(n) if k not in path]
    while unplaced:
        choice = None  # (delta, node, position)
        for node in unplaced:
            for pos in range(len(path) + 1):
                if pos == 0:
                    delta = cost[node][path[0]]
                elif pos == len(path):
                    delta = cost[path[-1]][node]
                else:
                    delta = (cost[path[pos - 1]][node] + cost[node][path[pos]]
                             - cost[path[pos - 1]][path[pos]])
                if choice is None or delta < choice[0] - 1e-15:
                    choice = (delta, node, pos)
        _, node, pos = choice
        path.insert(pos, node)
        unplaced.remove(node)
    if path[0] > path[-1]:
        path.reverse()
    return tuple(path)


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

    ``tree`` returns the remaining variables' columns X in ascending
    index, the edges (o, root) as column indices of X, and the tau matrix
    of X from which fitting picks the root: the variable with the largest
    summed absolute tau to the others (pair {a, b}, a < b, by entry
    (a, b)), ties to the lowest index.  With ``order`` given, the roots
    are ``order`` and the matrix is None.  After tree j, the column of a
    remaining variable o holds F(x_o | roots 0..j).
    """

    def __init__(self, U, order=None):
        self.cols = list(U.T)
        self.given = order
        self.remaining = list(range(U.shape[1]))
        self.roots: list[int] = []

    def tree(self):
        X = np.column_stack(self.cols)
        if self.given is None:
            taus = kendall_tau_matrix(X)
            r = int(np.argmax(np.abs(_symmetric_taus(taus)).sum(axis=1)))
        else:
            taus = None
            r = self.remaining.index(self.given[len(self.roots)])
        others = [a for a in range(len(self.cols)) if a != r]
        self.edges = (others, [r] * len(others))
        return X, self.edges, taus

    def advance(self, edges):
        others, (r, *_) = self.edges
        self.cols = [_h(c, self.cols[o], self.cols[r])
                     for c, o in zip(edges, others)]
        self.roots.append(self.remaining.pop(r))

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(self.roots + self.remaining)


class _DVineTrees:
    """Tree j pairs path positions i and i + j + 1 given the nodes between.

    Tree 1's columns are ``U``'s, its edges consecutive path variables and
    its tau matrix the one :func:`_dvine_path` selects the path from.  A
    deeper tree of k edges has column i = F(x_i | between) and column
    k + i = F(x_{i+j+1} | between), edge i pairing them, and no matrix.
    """

    def __init__(self, U, order=None):
        self.taus = None
        if order is None:
            self.taus = kendall_tau_matrix(U)
            order = _dvine_path(self.taus)
        self.order = order
        self.cols = list(U.T)
        self.edges = (list(order[:-1]), list(order[1:]))

    def tree(self):
        return np.column_stack(self.cols), self.edges, self.taus

    def advance(self, edges):
        (first, second), cols, k = self.edges, self.cols, len(edges) - 1
        self.cols = (
            [_h(edges[i], cols[first[i]], cols[second[i]]) for i in range(k)]
            + [_h(edges[i], cols[second[i]], cols[first[i]])
               for i in range(1, k + 1)])
        self.edges = (list(range(k)), list(range(k, 2 * k)))
        self.taus = None


_TREES = {VineType.CVINE: _CVineTrees, VineType.DVINE: _DVineTrees}


def fit_vine(U, vine_type: VineType, candidates, sig_level: float = 0.01,
             criterion: str = "aic") -> RVineModel:
    """Fit a C-vine or D-vine tree by tree.

    The tree walk gives each tree as its columns X, its edges (f, s) as
    column indices, u = X[:, f] and v = X[:, s], and the tau matrix T of
    X where it has one.  One ``indep_tests_cvm`` call per tree tests every
    edge at ``sig_level``; an edge it finds independent gets the product
    copula, every other edge CvM selection among ``candidates``
    (``gof_select_copula``) with tau T[f, s], the bits of
    ``kendall_tau(u, v)``, T coming from one ``_tau_matrix`` call over the
    dependent edges where the walk has none.  With
    ``criterion`` "aic" or "bic" the cumulative information criterion is
    evaluated after each tree and fitting stops as soon as it fails to
    decrease strictly, and the model keeps only the trees before the
    offending one.  ``criterion="none"`` fits all trees.  Bad options
    raise ``ValueError`` before any tree, whatever the column count.
    """
    if not 0.0 < sig_level < 1.0:  # also catches NaN
        raise ValueError("sig_level must be in (0, 1)")
    if criterion not in ("aic", "bic", "none"):
        raise ValueError(f"unknown criterion: {criterion}")
    U = np.asarray(U, dtype=float)
    vine_type = VineType(vine_type)
    m, n = U.shape
    if n < 2:
        return RVineModel(vine_type, tuple(range(n)), ())
    candidates = [CopulaFamily(c) for c in candidates
                  if CopulaFamily(c) is not CopulaFamily.PRODUCT]
    walk = _TREES[vine_type](U)
    trees: list[list[BivariateCopula]] = []
    loglik_cum = 0.0
    k_cum = 0
    crit_prev = 0.0
    for _ in range(n - 1):
        X, (first, second), taus = walk.tree()
        tests = indep_tests_cvm(X, (first, second), sig_level)
        dependent = [(f, s) for f, s, test in zip(first, second, tests)
                     if not test.independent]
        if taus is None and dependent:  # one call for the tree's GoF edges
            taus = _tau_matrix(X, np.transpose(dependent))
        edges = [product() if test.independent
                 else gof_select_copula(X[:, f], X[:, s], candidates,
                                        taus[f, s])
                 for test, f, s in zip(tests, first, second)]
        loglik_cum += sum(copula_loglik(c, X[:, [f, s]])
                          for c, f, s in zip(edges, first, second)
                          if c.family is not CopulaFamily.PRODUCT)
        k_cum += sum(c.n_params for c in edges)
        if criterion != "none":
            penalty = 2.0 if criterion == "aic" else math.log(m)
            crit_new = -2.0 * loglik_cum + penalty * k_cum
            if crit_new >= crit_prev:
                break
            crit_prev = crit_new
        trees.append(edges)
        walk.advance(edges)
    return RVineModel(vine_type, walk.order, tuple(map(tuple, trees)))


def vine_loglik(model: RVineModel, U) -> float:
    """Sum of pair-copula log likelihoods over the fitted non-product edges."""
    U = np.asarray(U, dtype=float)
    if U.shape[1] != model.dim:
        raise ValueError("dimension mismatch between model and data")
    walk = _TREES[model.vine_type](U, model.order)
    total = 0.0
    for tree in model.trees:
        X, (first, second), _ = walk.tree()
        for c, f, s in zip(tree, first, second):
            if c.family is not CopulaFamily.PRODUCT:
                total += copula_loglik(c, X[:, [f, s]])
        walk.advance(tree)
    return total


def vine_sample(model: RVineModel, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``m`` rows with uniform margins and the vine's dependence."""
    n, t = model.dim, len(model.trees)
    W = rng.random((m, n))
    if n < 2:
        return W
    # column k of W lands at variable order[k]
    cols = dict(zip(model.order, W.T))
    if model.vine_type is VineType.CVINE:
        # W[:, k] plays F(x_order[k] | x_order[:k]), the column the fitting
        # walk leaves for order[k]; undo its fitted trees last to first
        later = list(model.order[t:])
        for root, tree in reversed(list(zip(model.order, model.trees))):
            for c, o in zip(tree, sorted(later)):
                cols[o] = _hinv(c, cols[o], cols[root])
            later.append(root)
    else:
        # path position i is conditioned on its predecessors k0..i-1 through
        # back[k] = F(x_k | x_{k+1}..x_{i-1}) of the already sampled prefix
        back = [W[:, 0]]
        for i in range(1, n):
            k0 = max(0, i - t)
            edges = [model.trees[i - k - 1][k] for k in range(k0, i)]
            inner = [W[:, i]]  # inner[k+1-k0] = F(x_i | x_{k+1}..x_{i-1})
            for c, b in zip(edges, back[k0:]):
                inner.append(_hinv(c, inner[-1], b))
            cols[model.order[i]] = inner[-1]
            if i < n - 1:
                back[k0:] = [_h(c, b, u)
                             for c, b, u in zip(edges, back[k0:], inner[1:])]
                back.append(inner[-1])
    out = np.empty_like(W)
    for i, col in cols.items():
        out[:, i] = col
    return out


def describe_vine(model: RVineModel) -> str:
    """Readable text form of the vine: order, truncation and fitted trees."""
    lines = [f"{model.vine_type.value} order="
             f"{','.join(str(i) for i in model.order)} "
             f"trunc_level={model.trunc_level}"]
    for j, tree in enumerate(model.trees):
        lines.append(f"tree {j + 1}: " + " ".join(map(str, tree)))
    return "\n".join(lines)
