"""tarsim: tendon-driven insect-style tarsus simulation and gait analysis.

Modules by concern:

* ``chain``   string-pull kinematics of the five-tarsomere chain
* ``leg``     DH forward/inverse kinematics of the four-joint leg
* ``contact`` quasi-static leg-on-mesh attachment simulation
* ``gait``    motion-capture marker metrics and step-cycle segmentation
* ``stats``   pooled two-sample t-tests from group summaries
* ``table``   the one CSV format of every table read or written
* ``svgplot`` dependency-free SVG line charts of curve outputs
* ``config``  sectioned key-value configuration
* ``cli``     the ``tarsim`` command-line front end
"""

__version__ = "0.1.0"

from .chain import (ChainGeometry, ChainSolveError, ChainState,
                    SegmentGeometry, chain_pose, chain_pull,
                    default_chain_geometry, full_bend_pull, rest_state,
                    restoring_force, segment_pull, solve_bend_from_pull,
                    stiffness_curve, total_bend_angle)
from .contact import (ForceLimits, MeshGrid, Phase, Scenario,
                      builtin_scenario, hook_check, run_demo_cycle)
from .gait import (NoCyclesFound, StepCycle, TrialRecording, angle_series,
                   claw_displacement, fill_gaps, load_recording,
                   segment_cycles, trial_metrics)
from .leg import (DHRow, IKResult, LegModel, NotReachable, Trajectory,
                  default_leg_model, forward_kinematics, inverse_kinematics,
                  jacobian, load_trajectory, retarget_trajectory,
                  save_trajectory, trajectory_to_joints)
from .stats import (ConditionPair, GroupStats, TTestResult, ZeroVariance,
                    comparison_report, regularized_incomplete_beta, t_sf,
                    two_sample_ttest)
