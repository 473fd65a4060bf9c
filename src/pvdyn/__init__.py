"""Constrained rigid-body dynamics for kinematic trees.

Linear-complexity constrained forward dynamics (exact, relaxed, early
elimination, and proximal variants), Delassus-operator algorithms, the
classical recursive baselines they are graded against, and a benchmark
harness with instrumented flop counting.
"""

from .spatial import PlueckerTransform, SpatialInertia, compose, inverse
from .model import (ConstraintSet, Joint, Model, MotionConstraint, State,
                    neutral_state, point_constraint, random_state,
                    weld_constraint)
from .generators import (generate_chain, generate_humanoid_like,
                         generate_tree, standard_constraints)
from .urdf import load_urdf, parse_urdf_subset, serialize_urdf
from .kinematics import (KinematicsCache, constraint_drift,
                         constraint_jacobian, forward_kinematics,
                         link_jacobian)
from .baseline import (KktSolution, LtlFactor, MassMatrix, aba, bias_force,
                       crba, dense_delassus, kkt_oracle, ltl_factorize,
                       ltl_osim, ltl_solve, relaxed_kkt_oracle, rnea)
from .constrained import (ConstrainedSolution, PvWorkspace, SolverSettings,
                          constrained_aba, pv_early_solve, pv_soft_solve,
                          pv_solve)
from .delassus import (DelassusOperator, caba_osim, delassus_apply,
                       delassus_factor_solve, pv_osim, pv_osimr)
from .integrate import (IntegratorConfig, attach_anchors, rollout, step)
from .checks import (CheckReport, CheckResult, random_feasible_instance,
                     random_singular_instance, run_check_suite)
from .bench import (BenchRecord, BenchSpec, emit_csv, emit_json, load_json,
                    load_model, run_bench)
from . import errors, flops

__version__ = "0.1.0"
