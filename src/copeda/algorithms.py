"""Learning and sampling methods of the concrete algorithms.

UMDA couples fitted margins with the product copula, GCEDA with a
multivariate normal copula whose correlation matrix comes from pairwise tau
inversion plus positive-definite repair, CVEDA/DVEDA with a fitted vine,
and the copula-chain variant of MIMIC with ML normal (closed-form cubic
roots) or Frank (bounded Brent search) bivariate copulas along a greedily
chosen permutation, its links ranked by |theta| in the order of their
mutual information.  The Gaussian structures (product, normal copula and
the all-normal chain) hand G F^T, G one standard-normal block and F their
correlation's factor (none for the product), to the margins'
``from_scores``; vines and every other chain, a D-vine cut after tree 1,
hand ``vine_sample``'s uniforms to the margins' ``quantile``.  The normal
chain also learns in normal scores, the margins' ``to_scores``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .copulas import (
    RHO_MAX,
    BivariateCopula,
    CopulaFamily,
    fit_frank,
    normal,
)
from .dependence import (
    _symmetric_taus,
    _upper_pairs,
    kendall_tau_matrix,
    make_positive_definite,
    pseudo_observations,
)
from .margins import MarginKind, MarginModel, _columns, fit_margin
from .vines import (RVineModel, VineType, describe_vine, fit_vine,
                    vine_sample)


def _cubic_real_parts(b, c, d):
    """Real parts of the three roots of r^3 + b r^2 + c r + d, in closed
    form (arrays of one shape in, one more trailing axis of 3 out).

    With r = t - b/3 the cubic is t^3 + p t + q.  Three real roots (Delta =
    q^2/4 + p^3/27 < 0) come from the trigonometric form; otherwise the one
    real root is Cardano's, taken without cancellation, and the complex (or
    double) pair shares the real part -t/2, so it is listed twice.
    """
    shift = b / 3.0
    q = (2.0 * shift * shift - c) * shift + d
    h2 = shift * shift - c / 3.0  # -p/3
    delta = 0.25 * q * q - h2 * h2 * h2
    with np.errstate(invalid="ignore", divide="ignore"):
        # three real roots: h2 > 0 wherever delta < 0
        h = np.sqrt(h2)
        angle = np.arccos(np.clip(-0.5 * q / (h * h2), -1.0, 1.0))
        trig = (2.0 * h)[..., None] * np.cos(
            angle[..., None] / 3.0 - np.array([0.0, 2.0, 4.0]) * np.pi / 3.0)
        # one real root t = a - p/(3a); a = 0 only at the triple root t = 0
        a = -np.copysign(np.cbrt(0.5 * np.abs(q) + np.sqrt(delta)), q)
        t = a + np.divide(h2, a, out=np.zeros_like(a), where=a != 0.0)
    t = np.where((delta < 0.0)[..., None], trig,
                 t[..., None] * np.array([1.0, -0.5, -0.5]))
    return t - shift[..., None]


def _normal_ml_rho(Z: np.ndarray) -> np.ndarray:
    """ML normal-copula rho of every column pair of the normal scores Z,
    zero diagonal.

    With x, y two columns, C = sum(xy) and S = sum(x^2 + y^2), the
    likelihood's stationary points are the roots of
    -m r^3 + C r^2 + (m - S) r + C (>= 0 at -1, <= 0 at 1).  One Gram matrix
    gives every C and S, ``_cubic_real_parts`` the real part of every root
    in closed form, and the clipped real part with the highest likelihood
    wins.
    """
    m, n = Z.shape
    G = Z.T @ Z
    j, i = _upper_pairs(n)  # every (i, j) with i > j
    C, S = G[i, j], G[i, i] + G[j, j]
    r = np.clip(_cubic_real_parts(-C / m, (S - m) / m, -C / m),
                -RHO_MAX, RHO_MAX)
    C, S = C[:, None], S[:, None]
    loglik = (-0.5 * m * np.log1p(-r * r)
              + (2.0 * r * C - r * r * S) / (2.0 * (1.0 - r * r)))
    rho = np.zeros((n, n))
    rho[i, j] = rho[j, i] = r[np.arange(C.size), np.argmax(loglik, axis=1)]
    return rho


def chain_permutation(strength: np.ndarray) -> tuple[int, ...]:
    """Greedy chain (MIMIC): start at the strongest pair, then prepend the
    unused variable most strongly linked to the current head; ``strength``
    orders pairs as their mutual information does (|theta| in a chain)."""
    n = strength.shape[0]
    if n < 2:
        return tuple(range(n))
    # Python floats: the same IEEE comparisons as numpy scalars, indexed faster
    s = strength.tolist()
    best = (-np.inf, 1, 0)
    for i in range(1, n):
        for j in range(i):
            if s[i][j] > best[0]:
                best = (s[i][j], i, j)
    perm = [best[1], best[2]]
    while len(perm) < n:
        head = perm[0]
        candidates = [k for k in range(n) if k not in perm]
        perm.insert(0, max(candidates, key=lambda c: (s[c][head], -c)))
    return tuple(perm)


def _family_counts(copulas) -> dict[str, int]:
    counts = {family.value: 0 for family in CopulaFamily}
    for c in copulas:
        counts[c.family.value] += 1
    return counts


# Every dependence structure has the same four methods: the classmethod
# learn(spec, X, margins) fits it to the selected rows X, drawing nothing;
# sample(margins, m, rng) returns m rows, its draw pushed through the
# margins (_score_sample's normal scores, or vine_sample's uniforms into
# quantile); describe() is the text after "dependence: "; family_counts()
# maps each pair-copula family to its edges.


def _score_sample(margins, m: int, n: int, rng: np.random.Generator,
                  factor: np.ndarray | None = None) -> np.ndarray:
    """``from_scores(G @ F.T)`` of one ``(m, n)`` standard-normal block G,
    column r of G driving column r of the factor F (G without one)."""
    G = rng.standard_normal((m, n))
    return margins.from_scores(G if factor is None else G @ factor.T)


@dataclass(frozen=True)
class ProductDependence:
    """UMDA: ``n`` independent variables."""

    n: int

    @classmethod
    def learn(cls, spec, X, margins):
        return cls(X.shape[1])

    def sample(self, margins, m: int, rng: np.random.Generator) -> np.ndarray:
        return _score_sample(margins, m, self.n, rng)

    def describe(self) -> str:
        return "product"

    def family_counts(self) -> dict[str, int]:
        return _family_counts(())


@dataclass(frozen=True, eq=False)
class NormalDependence:
    """GCEDA: multivariate normal copula."""

    correlation: np.ndarray

    @classmethod
    def learn(cls, spec, X, margins):
        """With normal margins the algorithm coincides with the classic
        multivariate-normal EDA, so the correlation matrix is the sample
        (Pearson) correlation.  With any other margin kind it is estimated by
        pairwise Kendall tau inversion, rho = sin(pi tau / 2), with pair
        {i, j}, i < j, taking the tau of (X_i, X_j).  Either way the matrix
        is clipped away from +-1 and repaired to positive definite.
        """
        if spec.effective_margin is MarginKind.NORMAL:
            with np.errstate(invalid="ignore"):
                rho = np.atleast_2d(np.corrcoef(X.T))
            rho = np.nan_to_num(rho, nan=0.0)
        else:
            rho = np.sin(np.pi * _symmetric_taus(kendall_tau_matrix(X)) / 2.0)
        rho = np.clip(rho, -RHO_MAX, RHO_MAX)
        np.fill_diagonal(rho, 1.0)
        return cls(make_positive_definite(rho))

    @cached_property
    def factor(self) -> np.ndarray:
        """The Cholesky factor of ``correlation``, built once."""
        return np.linalg.cholesky(self.correlation)

    def sample(self, margins, m: int, rng: np.random.Generator) -> np.ndarray:
        return _score_sample(margins, m, len(self.correlation), rng,
                             self.factor)

    def describe(self) -> str:
        return ("normal copula, correlation=\n"
                + np.array2string(self.correlation, precision=6))

    def family_counts(self) -> dict[str, int]:
        return _family_counts(())


@dataclass(frozen=True)
class VineDependence:
    """CVEDA/DVEDA: a C-vine or D-vine fitted to the rank-transformed rows."""

    vine: RVineModel

    @classmethod
    def learn(cls, spec, X, margins):
        vine_type = (VineType.DVINE if spec.algorithm == "dveda"
                     else VineType.CVINE)
        return cls(fit_vine(pseudo_observations(X), vine_type,
                            spec.copulas, sig_level=spec.sig_level,
                            criterion=spec.trunc_criterion))

    def sample(self, margins, m: int, rng: np.random.Generator) -> np.ndarray:
        return margins.quantile(vine_sample(self.vine, m, rng))

    def describe(self) -> str:
        return describe_vine(self.vine)

    def family_counts(self) -> dict[str, int]:
        # a pair past the last fitted tree is independent: a product edge
        counts = _family_counts(c for tree in self.vine.trees for c in tree)
        counts["product"] += math.comb(self.vine.dim, 2) - sum(counts.values())
        return counts


@dataclass(frozen=True)
class ChainDependence:
    """Copula MIMIC: bivariate copulas linking consecutive ``perm`` slots."""

    perm: tuple[int, ...]
    copulas: tuple[BivariateCopula, ...]

    @classmethod
    def learn(cls, spec, X, margins):
        """Chain structure over the selected rows' margin transforms.

        Every pair gets its ML link: ``_normal_ml_rho`` on the margins'
        normal scores ``to_scores(X)``, or ``fit_frank`` on their CDF values
        ``cdf(X)``, with theta = 0 for a product fit.  A normal link's
        mutual information is -log(1 - rho^2)/2 and a Frank link's is even
        in theta and rises strictly with |theta|, so ranking by |theta| is
        exact.
        """
        if spec.copulas[0] is CopulaFamily.NORMAL:
            theta = _normal_ml_rho(margins.to_scores(X))
            link = lambda a, b: normal(float(theta[a, b]))
        else:
            U = margins.cdf(X)
            n = X.shape[1]
            pair: dict[tuple[int, int], BivariateCopula] = {}
            theta = np.zeros((n, n))
            for i in range(1, n):
                for j in range(i):
                    cop = pair[(i, j)] = pair[(j, i)] = fit_frank(U[:, [i, j]])
                    theta[i, j] = theta[j, i] = cop.theta
            link = lambda a, b: pair[(a, b)]
        perm = chain_permutation(np.abs(theta))
        return cls(perm, tuple(link(a, b) for a, b in zip(perm, perm[1:])))

    @cached_property
    def factor(self) -> np.ndarray | None:
        """The all-normal chain's (n, n) factor F, built once (``None`` if
        a link is not normal): slot n - 1 - r takes column r of the block G.

        Slot n - 1 is G's column 0; slot i < n - 1 is s_i g + rho_i y, with y
        slot i + 1's scores, g its own column of G, rho_i link i's rho and
        s_i = sqrt(1 - rho_i^2).  So in draw order F is lower-triangular,
        F[r, k] = s_k rho_(k+1) ... rho_r with rho_r, s_r those of slot
        n - 1 - r and s_0 = 1, and F F^T is the chain's Markov correlation,
        the product of the link rhos between two slots.
        """
        if any(c.family is not CopulaFamily.NORMAL for c in self.copulas):
            return None
        n = len(self.perm)
        drawn = self.perm[::-1]
        F = np.zeros((n, n))
        for r, v in enumerate(drawn):
            rho = self.copulas[n - 1 - r].theta if r else 0.0
            F[v, :r] = rho * F[drawn[r - 1], :r]
            F[v, r] = math.sqrt(1.0 - rho * rho)
        return F

    def sample(self, margins, m: int, rng: np.random.Generator) -> np.ndarray:
        """Last slot first: an all-normal chain through its ``factor``, any
        other as the D-vine along ``perm[::-1]`` cut after tree 1."""
        if self.factor is None:
            trees = (self.copulas[::-1],)
            return margins.quantile(vine_sample(
                RVineModel(VineType.DVINE, self.perm[::-1], trees), m, rng))
        return _score_sample(margins, m, len(self.perm), rng, self.factor)

    def describe(self) -> str:
        return "\n".join(["chain perm=" + ",".join(map(str, self.perm))]
                         + [f"link {k}: {c}"
                            for k, c in enumerate(self.copulas)])

    def family_counts(self) -> dict[str, int]:
        return _family_counts(self.copulas)


Dependence = ProductDependence | NormalDependence | VineDependence | ChainDependence

_DEPENDENCE = {"umda": ProductDependence, "gceda": NormalDependence,
               "cveda": VineDependence, "dveda": VineDependence,
               "copula-mimic": ChainDependence}


@dataclass(frozen=True, eq=False)
class SearchModel:
    """Margins plus a dependence structure; everything needed to sample."""

    margins: MarginModel
    dependence: Dependence


def learn_model(spec, X: np.ndarray, lower, upper) -> SearchModel:
    """Fit the margins to the selected ``(m, n)`` rows X, then the
    dependence structure of ``spec`` (an ``EdaSpec``)."""
    margins = fit_margin(spec.effective_margin, X, lower, upper)
    dependence = _DEPENDENCE[spec.algorithm].learn(spec, X, margins)
    return SearchModel(margins, dependence)


def sample_model(model: SearchModel, pop_size: int,
                 rng: np.random.Generator) -> np.ndarray:
    """``pop_size`` rows: the dependence structure's draw pushed through
    the margins, as normal scores or uniforms (see the structure's
    ``sample``)."""
    return model.dependence.sample(model.margins, pop_size, rng)


def describe_search_model(model: SearchModel) -> str:
    """Readable dump of the margins and the dependence structure."""
    return "\n".join([f"margin {j}: {margin}"
                      for j, margin in enumerate(_columns(model.margins))]
                     + ["dependence: " + model.dependence.describe()])
