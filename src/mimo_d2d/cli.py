"""Command-line entry point.

    mimo-d2d run --config cfg.json --drops 20 --seed 1 --out results/ \
        [--processing mr|zf] [--objective maxmin|maxprod] [--vars data|joint] \
        [--baselines] [--workers N] [--no-exact-d2d]
    mimo-d2d validate --config cfg.json

Exit codes: 0 success, 2 configuration error, 3 solver failure(s) with
partial output written.
"""

import argparse
import logging
import sys

from .scenario import ScenarioConfig, Scenario, ScenarioError
from .power_control import ControlProblemSpec
from .harness import ExperimentPlan, Baselines, run_experiment


def build_parser():
    parser = argparse.ArgumentParser(prog="mimo-d2d",
                                     description="Multi-cell massive MIMO with "
                                                 "D2D underlay: SE evaluation and "
                                                 "power control experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a batch experiment")
    run_p.add_argument("--config", required=True, help="scenario config JSON")
    run_p.add_argument("--drops", type=int, default=1)
    run_p.add_argument("--seed", type=int, default=0, help="master seed (64-bit)")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--processing", choices=["mr", "zf"], default="mr")
    run_p.add_argument("--objective", choices=["maxmin", "maxprod"], default="maxmin")
    run_p.add_argument("--vars", choices=["data", "joint"], default="data")
    run_p.add_argument("--baselines", action="store_true",
                       help="also run equal-power and cellular-only baselines")
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument("--no-exact-d2d", action="store_true",
                       help="report the closed-form D2D SE approximation "
                            "instead of the exact bound (Hamdi's integral)")
    run_p.add_argument("-v", "--verbose", action="store_true")

    val_p = sub.add_parser("validate", help="parse and validate a config")
    val_p.add_argument("--config", required=True)
    val_p.add_argument("--build", action="store_true",
                       help="also build one drop and check its invariants")
    return parser


def _load_config(path):
    try:
        return ScenarioConfig.load(path)
    except FileNotFoundError:
        raise ScenarioError(f"config file not found: {path}")


def cmd_run(args) -> int:
    config = _load_config(args.config)
    spec = ControlProblemSpec(objective=args.objective, variables=args.vars,
                              processing=args.processing)
    plan = ExperimentPlan(config=config, num_drops=args.drops, problems=[spec],
                          baselines=Baselines(equal_power=args.baselines,
                                              cellular_only=args.baselines),
                          output_dir=args.out, master_seed=args.seed,
                          exact_d2d=not args.no_exact_d2d,
                          workers=args.workers)
    table = run_experiment(plan)
    n_fail = table.summary["failure_count"]
    print(f"wrote {len(table.rows)} rows to {args.out} "
          f"({table.summary['num_drops']} drops, {n_fail} solver failures)")
    return 3 if n_fail else 0


def cmd_validate(args) -> int:
    config = _load_config(args.config)
    dims = config.dimensions()
    if args.build:
        # build_scenario validates the gains and pilots; the geometry check is here
        Scenario.build(config).geometry.validate()
    print(f"config ok: B={dims.num_cells} M={dims.antennas_per_bs} "
          f"K={dims.cus_per_cell} L={dims.num_d2d_pairs} N={dims.num_d2d_pilots} "
          f"tau={dims.pilot_len} tau_c={dims.coherence_len}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if getattr(args, "verbose", False)
                        else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_validate(args)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
