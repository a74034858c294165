"""Deterministic simulator for decentralized finite-sum optimization with
random reshuffling: seven methods, a unified two-matrix verification oracle,
stepsize theory calculators, and an experiment harness."""

from .algorithms import METHODS, initial_iterates, make_method, run
from .metrics import RateFit, Trajectory, TrajectoryRecord, rate_fit, read_csv
from .objective import (LogisticObjective, NonconvexLogisticObjective,
                        ObjectiveConstants, QuadraticObjective,
                        SeparableQuadratic, make_logistic,
                        make_nonconvex_logistic, make_quadratic)
from .shuffling import PermutationStream, rr_variance
from .stepsize import (ConstantSchedule, DecreasingSchedule, HarmonicSchedule,
                       PlateauSchedule, TheoryConstants, recommend_alpha,
                       theory_constants)
from .topology import (Graph, MixingMatrix, SpectralInfo, build_graph, lazify,
                       metropolis_weights, spectral_info)
from .unified import (AbcEngine, AbcOperator, TransformData, TransformedEngine,
                      build_operator, edrr_operator, gtrr_operator,
                      transform_data)

__version__ = "0.1.0"
