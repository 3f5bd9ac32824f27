"""Deviation-regret minimization over tree-form sequential decision problems.

The library revolves around three layers:

- `tfsdp` / `polynomials` / `maps`: decision problems, polynomial terminal
  maps, and consistent strategy mixtures;
- `dags` / `learners` / `fixedpoint`: decision-DAG deviation sets, regret
  minimizers over them, and the expected-fixed-point construction that turns
  a deviation into the mixture to play;
- `nfg` / `efg` / `profile`: game containers, self-play drivers, and exact
  audits of the correlated profiles they emit.
"""

from .dags import (
    DecisionDAG,
    best_reduced_strategy,
    build_dt_problem,
    forward_flow,
    interleave,
    terminal_weights,
)
from .efg import (
    EFGame,
    deviation_dag,
    dump_efg,
    efg_self_play,
    parse_efg,
    phi_equilibrium_gap,
)
from .errors import (
    CapacityError,
    InvalidDeviationError,
    MembershipError,
    ParseError,
    StructureError,
)
from .fixedpoint import (
    FixedPointConfig,
    PhiRegretMinimizer,
    expected_fixed_point,
    extract_expected_fixed_point,
)
from .gadget import gadget_iteration_cap, gadget_min_sum
from .learners import CfrLearner, Mwu
from .maps import BehavioralDescriptor, MonomialTable, SupportMix
from .nfg import (
    NormalFormGame,
    SwapLearner,
    bm_next,
    bm_observe,
    dump_nfg,
    expectation_oracle,
    matching_pennies,
    parse_nfg,
    run_ce,
    swap_gap,
)
from .polynomials import (
    PolynomialDeviation,
    extend_identity,
    extend_polynomial,
    random_low_degree_deviation,
)
from .profile import CorrelatedProfile
from .separation import separation_game, separation_table
from .tfsdp import DecisionProblem, hypercube_problem, parse_problem

__all__ = [
    "BehavioralDescriptor",
    "CapacityError",
    "CfrLearner",
    "CorrelatedProfile",
    "DecisionDAG",
    "DecisionProblem",
    "EFGame",
    "FixedPointConfig",
    "InvalidDeviationError",
    "MembershipError",
    "MonomialTable",
    "Mwu",
    "NormalFormGame",
    "ParseError",
    "PhiRegretMinimizer",
    "PolynomialDeviation",
    "StructureError",
    "SupportMix",
    "SwapLearner",
    "best_reduced_strategy",
    "bm_next",
    "bm_observe",
    "build_dt_problem",
    "deviation_dag",
    "dump_efg",
    "dump_nfg",
    "efg_self_play",
    "expectation_oracle",
    "expected_fixed_point",
    "extend_identity",
    "extend_polynomial",
    "extract_expected_fixed_point",
    "forward_flow",
    "gadget_iteration_cap",
    "gadget_min_sum",
    "hypercube_problem",
    "interleave",
    "matching_pennies",
    "parse_efg",
    "parse_nfg",
    "parse_problem",
    "phi_equilibrium_gap",
    "random_low_degree_deviation",
    "run_ce",
    "separation_game",
    "separation_table",
    "swap_gap",
    "terminal_weights",
]
