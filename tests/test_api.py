"""The package namespace: every public name, resolved on first use."""

import os
import subprocess
import sys
from types import ModuleType

import pytest

import svaudit

PUBLIC = [
    "AdversarialSet", "CapacityError", "Dataset", "DecisionTree", "ExplanationProblem",
    "FamilySpec", "FeatureSpace", "InputError", "Leaf", "NoSolutionError", "Node", "Omdd",
    "RelevancyReport", "ScanRecord", "ScanSummary", "SvReport", "SvauditError",
    "TabularClassifier", "adversarial", "analyze_instance", "axp_rule",
    "build_omdd_from_dataset", "certificate", "cube_size", "enumerate_explanations", "errors",
    "explain", "families", "find_witness", "instantiate", "is_counterfactual", "is_reduced",
    "is_sufficient", "load_consistent_dataset", "load_model", "min_l0_distance",
    "minimal_adversarial_sets", "minimal_hitting_sets", "model_from_dict", "model_io",
    "model_to_dict", "models", "one_axp", "one_cxp", "phi", "rat", "reduce_omdd",
    "relevancy_report", "save_model", "scan", "scan_model", "shapley", "shapley_values",
    "solve_family", "sum_kappa_over_cube", "symbolic_sv", "tabular_to_omdd", "to_omdd",
    "to_tabular", "varsigma",
]


def test_public_names_are_pinned():
    assert sorted(svaudit.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(svaudit))


def test_each_name_is_the_object_of_its_defining_module():
    for name in PUBLIC:
        value = getattr(svaudit, name)
        if isinstance(value, ModuleType):
            assert value is sys.modules[f"svaudit.{name}"]
        else:
            assert value.__module__.startswith("svaudit."), name
            assert value is vars(sys.modules[value.__module__])[name], name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from svaudit import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == \
        {name: getattr(svaudit, name) for name in PUBLIC}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        svaudit.no_such_name


def test_package_import_loads_no_submodule():
    src = os.path.dirname(os.path.dirname(svaudit.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = ("import sys, svaudit; loaded = sorted(k for k in sys.modules if 'svaudit' in k); "
              "svaudit.phi; print(loaded, 'svaudit.shapley' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['svaudit'] True\n"
