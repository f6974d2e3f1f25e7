"""The package's public names, pinned so that the API cannot grow silently."""

import importlib
import types

import pytest

import selfnorm

PUBLIC_NAMES = [
    "BoundCurve", "BoundPoint", "DEFAULT_B_GRID", "DEFAULT_KR", "DensityLaw",
    "DiscreteLaw", "DistributionModel", "DivergentError", "EXP_LEVEL",
    "GridMismatchError", "LOWER_CLT", "LOWER_Q1", "MCConfig",
    "NotBracketedError", "POWER_LEVEL", "PsiFunction",
    "Rademacher", "StandardGaussian", "UniformSymmetric", "VerificationReport",
    "bphi_norm", "bphi_tail_bound", "clopper_pearson", "degenerate_psi",
    "empirical_tail", "exp_curve", "fenchel", "gls_norm", "gls_tail_bound",
    "invert_monotone", "lower_clt_curve", "lower_q1_curve", "maximize_concave",
    "natural_phi", "parse_distribution", "power_curve", "power_phi",
    "power_psi", "rosenthal_psi", "self_normalized_stat", "sum_cgf",
    "verify_bounds",
]

MODULES = ["bounds", "cli", "convex", "distributions", "gls", "mc"]


def test_package_names():
    names = sorted(name for name, value in vars(selfnorm).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert len(PUBLIC_NAMES) == 42
    assert names == sorted(PUBLIC_NAMES)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_entries_exist(module):
    mod = importlib.import_module(f"selfnorm.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
