"""The package's public names, the parameters of its callables and the
public interface of each law, pinned so that the API cannot grow
silently."""

import ast
import importlib
import inspect
import math
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

import selfnorm

PUBLIC_NAMES = [
    "BoundCurve", "BoundPoint", "DEFAULT_B_GRID", "DEFAULT_KR", "DensityLaw",
    "DiscreteLaw", "DistributionModel", "DivergentError", "MCConfig",
    "NotBracketedError", "PsiFunction",
    "Rademacher", "StandardGaussian", "UniformSymmetric",
    "bphi_norm", "bphi_tail_bound", "degenerate_psi",
    "empirical_tail", "exp_curve", "fenchel", "gls_norm", "gls_tail_bound",
    "invert_monotone", "lower_clt_curve", "lower_q1_curve", "maximize_concave",
    "natural_phi", "parse_distribution", "power_curve", "power_phi",
    "power_psi", "verify_bounds",
]

# parameter names of every exported callable but the two exceptions,
# whose signatures are the built-in ones
PARAMETERS = {
    "BoundCurve": ("family", "n", "points"),
    "BoundPoint": ("B", "value", "objective", "arg_star", "n_star"),
    "DensityLaw": ("density", "support", "name"),
    "DiscreteLaw": ("atoms", "name"),
    "DistributionModel": ("sigma2", "name"),
    "MCConfig": ("n", "trials", "seed", "confidence"),
    "PsiFunction": ("fn", "b", "steer"),
    "Rademacher": (),
    "StandardGaussian": (),
    "UniformSymmetric": ("half_width",),
    "bphi_norm": ("law_mgf", "phi"),
    "bphi_tail_bound": ("phi", "norm", "u"),
    "degenerate_psi": ("r",),
    "empirical_tail": ("dist", "cfg", "B_grid"),
    "exp_curve": ("dist", "n", "B_grid"),
    "fenchel": ("f", "u"),
    "gls_norm": ("moment_curve", "psi"),
    "gls_tail_bound": ("psi", "norm", "y"),
    "invert_monotone": ("f", "y", "x_lo", "x_hi_hint"),
    "lower_clt_curve": ("dist", "B_grid"),
    "lower_q1_curve": ("dist", "B_grid"),
    "maximize_concave": ("obj", "x_lo", "x0", "rtol"),
    "natural_phi": ("dist",),
    "parse_distribution": ("spec",),
    "power_curve": ("dist", "n", "B_grid", "kr"),
    "power_phi": ("m",),
    "power_psi": ("m",),
    "verify_bounds": ("dist", "curves", "trials", "seed", "confidence"),
}

MODULES = ["bounds", "cli", "convex", "distributions", "gls", "mc"]


def test_package_names():
    # the referee's names resolve from selfnorm.mc on first use, so the
    # package lists them in dir() rather than holding them in vars()
    names = sorted(name for name in dir(selfnorm)
                   if not name.startswith("_")
                   and not isinstance(getattr(selfnorm, name), types.ModuleType))
    assert len(PUBLIC_NAMES) == 32
    assert names == sorted(PUBLIC_NAMES)
    src = pathlib.Path(selfnorm.__file__).resolve().parents[1]
    code = "import sys, selfnorm; print('selfnorm.mc' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"
    assert selfnorm.MCConfig is selfnorm.mc.MCConfig
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        selfnorm.bogus


def test_every_package_name_is_read_outside_its_module():
    # a name that only its own module reads need not be public: each must
    # appear in the CLI, in a demo or in another module of the package
    root = pathlib.Path(__file__).resolve().parents[1]
    sources = {path.stem: path.read_text()
               for path in (root / "src" / "selfnorm").glob("*.py")
               if path.stem != "__init__"}
    demos = [path.read_text() for path in (root / "demos").glob("*.py")]
    unread = []
    for name in PUBLIC_NAMES:
        home, = [m for m in MODULES
                 if name in importlib.import_module(f"selfnorm.{m}").__all__]
        readers = [text for m, text in sources.items() if m != home] + demos
        if not any(re.search(rf"\b{name}\b", text) for text in readers):
            unread.append(name)
    assert unread == []


def test_every_import_is_read():
    # an import that its module never reads is dead; __init__ imports
    # only to re-export, so it is left out
    unread = []
    for path in pathlib.Path(selfnorm.__file__).parent.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name).partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unread += [f"{path.stem}: {name}" for name in names if name not in read]
    assert unread == []


@pytest.mark.parametrize("module", MODULES)
def test_module_all_entries_exist(module):
    mod = importlib.import_module(f"selfnorm.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_callable_parameters():
    got = {}
    for name in PUBLIC_NAMES:
        value = getattr(selfnorm, name)
        if callable(value) and not (isinstance(value, type)
                                    and issubclass(value, Exception)):
            got[name] = tuple(inspect.signature(value).parameters)
    assert got == PARAMETERS


LAW_INTERFACE = {"lp_norm", "log_mgf2", "quadratic_moments",
                 "summand_lp_norm", "q1",
                 "sample", "sigma2", "name", "symmetric", "min_positive_atom"}


@pytest.mark.parametrize("spec, extra", [
    ("rademacher", {"from_sample"}),
    ("gaussian", {"support"}),
    ("uniform:a=1.7320508075688772", {"support", "half_width"}),
    ("discrete:-1:0.6666666666666666,2:0.3333333333333334", {"from_sample"}),
    ("density", {"support"}),
])
def test_law_interface(spec, extra):
    if spec == "density":
        law = selfnorm.DensityLaw(lambda x: 0.5 * math.exp(-abs(x)))
    else:
        law = selfnorm.parse_distribution(spec)
    names = {name for name in dir(law) if not name.startswith("_")}
    assert names == LAW_INTERFACE | extra
