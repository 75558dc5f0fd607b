"""Learning and sampling methods of the concrete algorithms.

UMDA couples fitted margins with the product copula, GCEDA with a
multivariate normal copula whose correlation matrix comes from pairwise tau
inversion plus positive-definite repair, CVEDA/DVEDA with a fitted vine,
and the copula-chain variant of MIMIC with ML normal (closed form) or
Frank (bounded Brent search) bivariate copulas along a greedily chosen
permutation ordered by copula-entropy mutual information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.optimize import minimize_scalar

from .copulas import (
    FRANK_THETA_MAX,
    INTERIOR_EPS,
    RHO_MAX,
    BivariateCopula,
    CopulaFamily,
    copula_hinv,
    copula_loglik,
    frank,
    mvnormal_copula_sample,
    normal,
    product,
)
from .dependence import (
    copula_mutual_information,
    kendall_tau_matrix,
    make_positive_definite,
    pseudo_observations,
)
from .margins import MarginKind, MarginModel, _columns, fit_margin
from .vines import (RVineModel, VineType, describe_vine, fit_vine,
                    vine_sample)


def _normal_ml_rho(U: np.ndarray) -> np.ndarray:
    """ML normal-copula rho of every column pair of U, zero diagonal.

    With x, y the ``ndtri`` of the interior-clipped columns, C = sum(xy) and
    S = sum(x^2 + y^2), the likelihood's stationary points are the roots of
    -m r^3 + C r^2 + (m - S) r + C (>= 0 at -1, <= 0 at 1).  One Gram matrix
    gives every C and S, batched companion ``eigvals`` every root, and the
    clipped real part with the highest likelihood wins.
    """
    m, n = U.shape
    Z = special.ndtri(np.clip(U, INTERIOR_EPS, 1.0 - INTERIOR_EPS))
    G = Z.T @ Z
    i, j = np.tril_indices(n, -1)
    C, S = G[i, j][:, None], (G[i, i] + G[j, j])[:, None]
    companion = np.zeros((C.size, 3, 3))
    companion[:, 0] = np.hstack([C, m - S, C]) / m
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    r = np.clip(np.linalg.eigvals(companion).real, -RHO_MAX, RHO_MAX)
    loglik = (-0.5 * m * np.log1p(-r * r)
              + (2.0 * r * C - r * r * S) / (2.0 * (1.0 - r * r)))
    rho = np.zeros((n, n))
    rho[i, j] = rho[j, i] = r[np.arange(C.size), np.argmax(loglik, axis=1)]
    return rho


def _frank_ml(U2: np.ndarray) -> BivariateCopula:
    """ML Frank copula of the two columns of U2 by bounded 1-D search."""

    def make(theta):
        return frank(theta) if abs(theta) > 1e-8 else product()

    def negloglik(param):
        try:
            return -copula_loglik(make(param), U2)
        except (ValueError, FloatingPointError):
            return np.inf

    res = minimize_scalar(negloglik,
                          bounds=(-FRANK_THETA_MAX, FRANK_THETA_MAX),
                          method="bounded", options={"xatol": 1e-6})
    return make(float(res.x))


def chain_permutation(mi: np.ndarray) -> tuple[int, ...]:
    """Greedy chain: start at the strongest pair, then prepend the unused
    variable with the highest mutual information to the current head."""
    n = mi.shape[0]
    best = (-np.inf, 1, 0)
    for i in range(1, n):
        for j in range(i):
            if mi[i, j] > best[0]:
                best = (mi[i, j], i, j)
    perm = [best[1], best[2]]
    used = set(perm)
    while len(perm) < n:
        head = perm[0]
        candidates = [k for k in range(n) if k not in used]
        k = max(candidates, key=lambda c: (mi[c, head], -c))
        perm.insert(0, k)
        used.add(k)
    return tuple(perm)


def _family_counts(copulas) -> dict[str, int]:
    counts = {family.value: 0 for family in CopulaFamily}
    for c in copulas:
        counts[c.family.value] += 1
    return counts


# Every dependence structure has the same four methods: the classmethod
# learn(spec, X, margins, rng) fits it to the selected rows X; sample(m, n,
# rng) draws m rows of n uniforms; describe() is the text after
# "dependence: "; family_counts() maps each pair-copula family to its edges.


@dataclass(frozen=True)
class ProductDependence:
    """UMDA: independent variables."""

    @classmethod
    def learn(cls, spec, X, margins, rng):
        return cls()

    def sample(self, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random((m, n))

    def describe(self) -> str:
        return "product"

    def family_counts(self) -> dict[str, int]:
        return _family_counts(())


@dataclass(frozen=True, eq=False)
class NormalDependence:
    """GCEDA: multivariate normal copula."""

    correlation: np.ndarray

    @classmethod
    def learn(cls, spec, X, margins, rng):
        """With normal margins the algorithm coincides with the classic
        multivariate-normal EDA, so the correlation matrix is the sample
        (Pearson) correlation.  With any other margin kind it is estimated by
        pairwise Kendall tau inversion, rho = sin(pi tau / 2).  Either way the
        matrix is clipped away from +-1 and repaired to positive definite.
        """
        if spec.effective_margin is MarginKind.NORMAL:
            with np.errstate(invalid="ignore"):
                rho = np.corrcoef(X.T)
            rho = np.nan_to_num(rho, nan=0.0)
        else:
            rho = np.sin(np.pi * kendall_tau_matrix(X) / 2.0)
        rho = np.clip(rho, -(1.0 - 1e-8), 1.0 - 1e-8)
        np.fill_diagonal(rho, 1.0)
        return cls(make_positive_definite(rho))

    def sample(self, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return mvnormal_copula_sample(self.correlation, m, rng)

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
    def learn(cls, spec, X, margins, rng):
        vine_type = (VineType.DVINE if spec.algorithm == "dveda"
                     else VineType.CVINE)
        return cls(fit_vine(pseudo_observations(X), vine_type,
                            spec.copulas, sig_level=spec.sig_level,
                            criterion=spec.trunc_criterion))

    def sample(self, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return vine_sample(self.vine, m, rng)

    def describe(self) -> str:
        return describe_vine(self.vine)

    def family_counts(self) -> dict[str, int]:
        return _family_counts(c for tree in self.vine.trees for c in tree)


@dataclass(frozen=True)
class ChainDependence:
    """Copula MIMIC: bivariate copulas linking consecutive ``perm`` slots."""

    perm: tuple[int, ...]
    copulas: tuple[BivariateCopula, ...]

    @classmethod
    def learn(cls, spec, X, margins, rng):
        """Chain structure over margin-CDF transforms of the selected rows.

        Normal links are ``_normal_ml_rho`` with mutual information
        -log(1 - rho^2)/2 and draw nothing from ``rng``; Frank links are the
        ML parameter of a bounded Brent search (``_frank_ml``), with a
        Monte-Carlo copula-entropy mutual information.
        """
        n = X.shape[1]
        U = margins.cdf(X)
        if spec.copulas[0] is CopulaFamily.NORMAL:
            rho = _normal_ml_rho(U)
            perm = chain_permutation(-0.5 * np.log1p(-rho * rho))
            return cls(perm, tuple(normal(float(rho[a, b]))
                                   for a, b in zip(perm, perm[1:])))
        pair: dict[tuple[int, int], BivariateCopula] = {}
        mi = np.zeros((n, n))
        for i in range(1, n):
            for j in range(i):
                cop = _frank_ml(U[:, [i, j]])
                mi[i, j] = mi[j, i] = copula_mutual_information(cop, rng)
                pair[(i, j)] = pair[(j, i)] = cop
        perm = chain_permutation(mi)
        return cls(perm, tuple(pair[(perm[k], perm[k + 1])]
                               for k in range(n - 1)))

    def sample(self, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """Last permutation slot uniform, the rest conditional on the next."""
        U = np.empty((m, n))
        U[:, self.perm[-1]] = rng.random(m)
        for k in range(n - 2, -1, -1):
            w = rng.random(m)
            U[:, self.perm[k]] = copula_hinv(self.copulas[k], w,
                                             U[:, self.perm[k + 1]])
        return U

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


def learn_model(spec, X: np.ndarray, lower, upper,
                rng: np.random.Generator) -> SearchModel:
    """Fit the margins to the selected ``(m, n)`` rows X, then the
    dependence structure of ``spec`` (an ``EdaSpec``)."""
    margins = fit_margin(spec.effective_margin, X, lower, upper)
    dependence = _DEPENDENCE[spec.algorithm].learn(spec, X, margins, rng)
    return SearchModel(margins, dependence)


def sample_model(model: SearchModel, pop_size: int, lower, upper,
                 rng: np.random.Generator) -> np.ndarray:
    """Uniforms from the dependence structure through the margins'
    quantiles."""
    return model.margins.quantile(
        model.dependence.sample(pop_size, len(lower), rng))


def describe_search_model(model: SearchModel) -> str:
    """Readable dump of the margins and the dependence structure."""
    return "\n".join([f"margin {j}: {margin}"
                      for j, margin in enumerate(_columns(model.margins))]
                     + ["dependence: " + model.dependence.describe()])
