"""Command line entry points.

``simulate`` runs one scenario and writes report.json, timeseries.csv and
trace_hash.txt.  ``sweep`` fans a base scenario out over fabrics and
power-management schemes and writes comparison tables.  ``validate``
checks a scenario file and exits.

Exit codes: 0 success, 1 configuration error, 2 internal invariant
violation or any other unexpected exception (a bug, not a user error),
reported on one line without a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import os
import sys

from . import report as reporting
from .config import ConfigError, from_dict
from .engine import InternalInvariantViolation
from .presets import ARCHITECTURES, SCENARIOS
from .scheduler import SCHEMES

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return data


def _make_outdir(path: str, names: dict) -> dict:
    """Create the output directory and check the files the run will write
    there, so that a target path taken by a directory fails before the run
    rather than after it.  ``names`` maps a key to a file name; the result
    maps the same key to the file's path."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None
    targets = {key: os.path.join(path, name) for key, name in names.items()}
    for target in targets.values():
        if os.path.isdir(target):
            raise ConfigError(f"cannot write {target}: it is a directory")
    return targets


@contextlib.contextmanager
def _writing(outdir: str):
    """Report a result file that cannot be written as a config error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write results in {outdir}: {exc}") from None


def _base_data(args) -> dict:
    if getattr(args, "scenario", None):
        return _load_json(args.scenario)
    preset = getattr(args, "preset", None) or "reference-30"
    if preset not in SCENARIOS:
        raise ConfigError(f"unknown scenario preset {preset!r} "
                          f"(have: {', '.join(sorted(SCENARIOS))})")
    return copy.deepcopy(SCENARIOS[preset])


def _apply_overrides(data: dict, args) -> dict:
    if getattr(args, "arch", None):
        data["architecture"] = args.arch
    if getattr(args, "scheme", None):
        data.setdefault("policy", {})
        data["policy"] = dict(data["policy"], scheme=args.scheme)
    for attr, key in (("load", "target_load"), ("horizon", "horizon_s"),
                      ("seed", "seed"), ("replications", "replications"),
                      ("label", "label")):
        value = getattr(args, attr, None)
        if value is not None:
            data[key] = value
    return data


def _print_report(rep, out) -> None:
    e = rep.energy
    print(f"scenario      {rep.label} [{rep.architecture}, scheme={rep.scheme}, "
          f"seed={rep.seed}, horizon={rep.horizon_s:g}s]", file=out)
    print(f"energy (Wh)   servers={e.servers_wh:.1f}  core={e.core_wh:.1f}  "
          f"aggregation={e.aggregation_wh:.1f}  access={e.access_wh:.1f}  "
          f"total={e.total_wh:.1f}", file=out)
    print(f"shares        servers={e.share(e.servers_wh):.1%}  "
          f"switches={e.share(e.switch_wh):.1%}", file=out)
    print(f"efficiency    PUE={rep.pue:.3f}  DCIE={rep.dcie:.3f}  "
          f"awake={rep.awake_fraction_steady:.1%} (steady)", file=out)
    sla = rep.sla
    print(f"sla           offered={sla['offered']}  rejected={sla['rejected']}  "
          f"missed={sla['deadline_missed']}  "
          f"violations={sla['violation_fraction']:.4%}", file=out)
    print(f"annual cost   ${rep.annual_cost_usd:,.0f}", file=out)
    print(f"trace         {rep.trace_hash}", file=out)


def cmd_simulate(args) -> int:
    cfg = from_dict(_apply_overrides(_base_data(args), args))
    outdir = args.out or f"run-{cfg.label}-{cfg.policy.scheme}"
    n = cfg.replications
    names = {"report": "report.json", "series": "timeseries.csv", "hash": "trace_hash.txt"}
    if n > 1:
        names.update({i: f"report-{i}.json" for i in range(n)}, summary="summary.json")
    paths = _make_outdir(outdir, names)
    if n > 1:
        reports = reporting.run_replications(cfg, workers=args.workers)
        summary = reporting.summarize_replications(reports)
        with _writing(outdir):
            for i, rep in enumerate(reports):
                reporting.write_report_json(rep, paths[i])
            with open(paths["summary"], "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
                fh.write("\n")
        tot = summary["total_wh"]
        print(f"{n} replications: total energy "
              f"{tot['mean']:.1f} Wh +/- {tot['ci95_half_width']:.1f} (95% CI)")
        rep = reports[0]
    else:
        rep = reporting.run_scenario(cfg)
        _print_report(rep, sys.stdout)
    with _writing(outdir):
        reporting.write_report_json(rep, paths["report"])
        reporting.write_timeseries_csv(rep, paths["series"])
        with open(paths["hash"], "w") as fh:
            fh.write(rep.trace_hash + "\n")
    print(f"results in {outdir}/")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = from_dict(_apply_overrides(_base_data(args), args))
    matrix = _load_json(args.matrix) if args.matrix else {}
    for key in matrix:
        if key not in ("architectures", "schemes"):
            raise ConfigError(f"unknown key {key} in matrix file "
                              "(allowed: architectures, schemes)")
    archs = (args.archs.split(",") if args.archs
             else matrix.get("architectures") or sorted(ARCHITECTURES))
    schemes = (args.schemes.split(",") if args.schemes
               else matrix.get("schemes") or list(SCHEMES))
    for a in archs:
        if a not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {a!r}")
    for s in schemes:
        if s not in SCHEMES:
            raise ConfigError(f"unknown scheme {s!r}")
    cells = reporting.experiment_cells(cfg, {a: a for a in archs}, schemes)
    outdir = args.out or f"sweep-{cfg.label}"
    base_arch = archs[0] if len(archs) == 1 else "three_tier"
    names = {(a, s): f"{a}-{s}.json" for a in archs for s in schemes}
    if "none" in schemes:
        names["by_architecture"] = "energy_by_architecture.csv"
        if base_arch in archs:
            names["savings"] = "savings_by_scheme.csv"
    paths = _make_outdir(outdir, names)
    results = reporting.run_experiment_matrix(cells, workers=args.workers)
    for (arch, scheme), rep in sorted(results.items()):
        e = rep.energy
        print(f"{arch:14s} {scheme:9s} total={e.total_wh:10.1f} Wh  "
              f"servers={e.share(e.servers_wh):6.1%}  "
              f"violations={rep.sla['violation_fraction']:.4%}")
    with _writing(outdir):
        for cell, rep in results.items():
            reporting.write_report_json(rep, paths[cell])
        if "by_architecture" in paths:
            reporting.write_energy_by_architecture_csv(results, paths["by_architecture"])
        if "savings" in paths:
            reporting.write_savings_by_scheme_csv(results, paths["savings"],
                                                  architecture=base_arch)
    print(f"results in {outdir}/")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = from_dict(_base_data(args))
    if args.dot:
        from .topology import build_topology
        text = build_topology(cfg.architecture).to_dot() + "\n"
        try:
            with open(args.dot, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.dot}: {exc}") from None
        print(f"wrote {args.dot}")
    print(f"ok: {cfg.label} ({cfg.architecture.kind}, scheme={cfg.policy.scheme})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greendc",
        description="Energy-aware data center simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_overrides=True):
        p.add_argument("--scenario", help="scenario JSON file")
        p.add_argument("--preset", choices=sorted(SCENARIOS),
                       help="named scenario to start from (default reference-30)")
        if with_overrides:
            p.add_argument("--arch", choices=sorted(ARCHITECTURES),
                           help="override the fabric architecture")
            p.add_argument("--load", type=float, help="override target load (0..1]")
            p.add_argument("--horizon", type=float, help="override horizon seconds")
            p.add_argument("--seed", type=int, help="override base seed")
            p.add_argument("--label", help="override the scenario label")
            p.add_argument("--out", help="output directory")
            p.add_argument("--workers", type=int, default=None,
                           help="worker processes for independent runs "
                                "(1 to the CPU count)")

    p_sim = sub.add_parser("simulate", help="run one scenario")
    common(p_sim)
    p_sim.add_argument("--scheme", choices=SCHEMES,
                       help="override the power management scheme")
    p_sim.add_argument("--replications", type=int,
                       help="run this many seeds and summarize")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="architecture x scheme comparison")
    common(p_sweep)
    p_sweep.add_argument("--matrix", help="JSON file listing architectures "
                                          "and schemes to sweep")
    p_sweep.add_argument("--archs", help="comma-separated architectures "
                                         "(default: all)")
    p_sweep.add_argument("--schemes", help="comma-separated schemes "
                                           "(default: all)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a scenario file")
    common(p_val, with_overrides=False)
    p_val.add_argument("--dot", help="also export the fabric as a DOT graph")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        workers, cpus = getattr(args, "workers", None), os.cpu_count() or 1
        if workers is not None and not 1 <= workers <= cpus:
            raise ConfigError(f"--workers must be in 1..{cpus}, got {workers}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception as exc:   # the process boundary: anything else is a bug
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
