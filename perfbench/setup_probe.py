"""What every flexlife CLI invocation pays before its work starts: the
imports, loading the config and building the trajectory plan.

Run from the repository root: ``python3 perfbench/setup_probe.py CONFIG``.
"""

import sys

sys.path.insert(0, "src")

from flexlife import cli, config, trajectory  # noqa: E402,F401

cfg = config.load_config(sys.argv[1])
trajectory.plan_joint_move(cfg.q_pick, cfg.q_place, cfg.limits)
