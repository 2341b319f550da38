"""svaudit: exact Shapley values vs formal feature relevancy for discrete classifiers.

The package computes, with arbitrary-precision rational arithmetic:

* exact Shapley values for feature attribution under the uniform input
  distribution, each report carrying its efficiency residual;
* abductive and contrastive explanations, their complete enumeration via
  minimal-hitting-set duality, and feature relevancy/necessity;
* subset-minimal l0 adversarial change-sets and their equivalence with
  contrastive explanations;
* parameterized classifier families where a relevant feature gets Shapley
  value 0 while irrelevant features get nonzero values, plus a solver that
  synthesizes fresh instances of them;
* whole-model scans flagging instances whose attribution order is
  misleading (an irrelevant feature outranking a relevant one).
"""

from importlib import import_module as _import_module

# Each public name, and each submodule, resolves on first access (PEP 562), so
# importing the package, or one of its submodules, loads no engine it does
# not use: a CLI call imports only what its command runs.
_EXPORTS = {
    "adversarial": ("AdversarialSet", "find_witness", "min_l0_distance", "minimal_adversarial_sets"),
    "errors": ("CapacityError", "InputError", "NoSolutionError", "SvauditError"),
    "explain": ("RelevancyReport", "axp_rule", "enumerate_explanations", "is_counterfactual",
                "is_sufficient", "minimal_hitting_sets", "one_axp", "one_cxp",
                "relevancy_report"),
    "families": ("FamilySpec", "certificate", "instantiate", "solve_family", "symbolic_sv"),
    "model_io": ("load_model", "model_from_dict", "model_to_dict", "save_model"),
    "models": ("DecisionTree", "ExplanationProblem", "FeatureSpace", "Leaf", "Node", "Omdd",
               "TabularClassifier", "cube_size", "is_reduced", "reduce_omdd",
               "sum_kappa_over_cube", "tabular_to_omdd", "to_omdd", "to_tabular"),
    "rat": (),
    "scan": ("Dataset", "ScanRecord", "ScanSummary", "analyze_instance",
             "build_omdd_from_dataset", "load_consistent_dataset", "scan_model"),
    "shapley": ("SvReport", "phi", "shapley_values", "varsigma"),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
