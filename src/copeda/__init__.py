"""Copula-based estimation-of-distribution algorithms for continuous optimization."""

from .copulas import (
    BivariateCopula,
    CopulaFamily,
    ParameterError,
    UnsupportedTauError,
    clayton,
    copula_cdf,
    copula_h,
    copula_hinv,
    copula_loglik,
    copula_pdf,
    copula_sample,
    fit_student_dof,
    frank,
    gumbel,
    mvnormal_copula_sample,
    normal,
    parameter_to_tau,
    product,
    student,
    tau_to_parameter,
)
from .margins import MarginKind, fit_margin
from .dependence import (
    DegenerateDataWarning,
    copula_mutual_information,
    gof_select_copula,
    indep_test_cvm,
    indep_tests_cvm,
    kendall_tau,
    kendall_tau_matrix,
    make_positive_definite,
    pseudo_observations,
)
from .vines import (
    RVineModel,
    VineType,
    describe_vine,
    fit_vine,
    select_dvine_order,
    vine_loglik,
    vine_sample,
)
from .eda import (
    EdaSpec,
    InputError,
    ObjectiveError,
    RunResult,
    TerminationSpec,
    critical_pop_size,
    eda_indep_runs,
    eda_run,
    run_rng,
    seed_uniform,
    select_truncation,
    summarize_runs,
    terminate_check,
)
from .algorithms import (
    ChainDependence,
    NormalDependence,
    ProductDependence,
    SearchModel,
    VineDependence,
    chain_permutation,
    describe_search_model,
    learn_model,
    sample_model,
)
from .benchmarks import (
    f_sphere,
    f_summation_cancellation,
    get_benchmark,
)

__all__ = [name for name in dir() if not name.startswith("_")]
