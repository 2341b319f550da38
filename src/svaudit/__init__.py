"""svaudit: exact Shapley values vs formal feature relevancy for discrete classifiers.

The package computes, with arbitrary-precision rational arithmetic:

* exact Shapley values for feature attribution under the uniform input
  distribution, with the efficiency-identity validator;
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

from .adversarial import (
    AdversarialSet,
    ae_feature_set,
    find_witness,
    min_l0_distance,
    minimal_adversarial_sets,
)
from .errors import CapacityError, InputError, NoSolutionError, SvauditError
from .explain import (
    RelevancyReport,
    axp_rule,
    enumerate_explanations,
    is_counterfactual,
    is_sufficient,
    minimal_hitting_sets,
    one_axp,
    one_cxp,
    relevancy_report,
)
from .families import FamilySpec, certificate, instantiate, solve_family, symbolic_sv
from .model_io import load_model, model_from_dict, model_to_dict, save_model
from .models import (
    DecisionTree,
    DTLeaf,
    DTNode,
    ExplanationProblem,
    FeatureSpace,
    Leaf,
    Node,
    Omdd,
    OmddNode,
    OmddTerminal,
    TabularClassifier,
    cube_size,
    dt_to_tabular,
    is_reduced,
    omdd_to_tabular,
    reduce_omdd,
    sum_kappa_over_cube,
    tabular_to_omdd,
    to_omdd,
    to_tabular,
)
from .scan import (
    Dataset,
    ScanRecord,
    ScanSummary,
    analyze_instance,
    build_omdd_from_dataset,
    load_consistent_dataset,
    scan_model,
)
from .shapley import SvReport, phi, shapley_values, validate_efficiency, varsigma

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
