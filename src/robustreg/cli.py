"""Command-line interface.

Exit codes: 0 on success, 1 on validation errors (bad flags or config),
2 on runtime failures (a pipeline that could not complete).
"""

from __future__ import annotations

import argparse
import sys

from .core import load_domain
from .dimensions import dual_fat_shattering, fat_shattering, greedy_cover
from .compression import generalization_bound
from .errors import InvalidParameter, RobustRegError
from .harness import ExperimentConfig, gen_instance, instance_to_domain_json, run_experiment, write_csv
from .oracles import FiniteClass, FiniteClassOracle, load_class_csv
from .pipelines import (
    PipelineConfig,
    agnostic_eta_learn,
    agnostic_regression,
    dual_embed,
    improper_learn,
    proper_learn,
    realizable_regression,
    sample_complexity,
)
from .core import inflate


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--config", help="path to a JSON config document")
    common.add_argument("--out", help="write output here instead of stdout")

    p = argparse.ArgumentParser(prog="robustreg",
                                description="robust regression toolkit")
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("gen", parents=[common],
                        help="generate a synthetic domain document")
    sp.add_argument("--m", type=int, help="sample size override")

    sp = sub.add_parser("fatdim", parents=[common],
                        help="fat and dual-fat values over a gamma grid")
    sp.add_argument("--gamma", type=float, action="append", default=None)
    sp.add_argument("--matrix", help="class CSV instead of --config")
    sp.add_argument("--max-points", type=int, default=16)
    sp.add_argument("--max-hypotheses", type=int, default=256)

    sp = sub.add_parser("cover", parents=[common],
                        help="greedy sup-norm cover of the inflated set")
    sp.add_argument("--t", type=float, required=True)

    for name in ("learn-proper", "learn-improper", "agnostic-eta"):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--eta", type=float, required=True)
        if name == "learn-proper":
            sp.add_argument("--epsilon", type=float, required=True)

    sp = sub.add_parser("regress", parents=[common])
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--p", type=float, default=1.0)

    sp = sub.add_parser("agnostic-regress", parents=[common])
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--p", type=float, default=1.0)

    sp = sub.add_parser("bounds", parents=[common],
                        help="generalization and sample-size calculators")
    sp.add_argument("--kind", choices=["realizable", "agnostic", "bernstein"])
    sp.add_argument("--k", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--empirical", type=float, default=0.0)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--theorem", choices=["3.1", "4.1", "4.2", "5.1", "5.2"])
    sp.add_argument("--fat", type=int)
    sp.add_argument("--fat-star", type=int)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--eta", type=float)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--with-logs", action="store_true")

    sub.add_parser("experiment", parents=[common],
                   help="run a sweep and write CSV rows")
    return p


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_config(args):
    if not args.config:
        raise InvalidParameter("missing --config")
    return load_domain(args.config)


def _oracle_from(domain):
    if domain.class_matrix is None:
        raise InvalidParameter("domain document has no class_matrix")
    return FiniteClassOracle(FiniteClass(domain.class_matrix))


def _cmd_gen(args) -> str:
    if not args.config:
        raise InvalidParameter("missing --config")
    config = ExperimentConfig.from_json(args.config)
    seed = args.seed if args.seed is not None else config.seed
    cls, U, sample, holdout = gen_instance(config, seed, m=args.m)
    return instance_to_domain_json(cls, U, sample, holdout) + "\n"


def _cmd_fatdim(args) -> str:
    gammas = args.gamma or []
    if not gammas:
        raise InvalidParameter("missing --gamma")
    for g in gammas:
        if g <= 0:
            raise InvalidParameter(f"invalid gamma: must be positive, got {g}")
    if args.matrix:
        cls = load_class_csv(args.matrix)
    else:
        domain = _require_config(args)
        if domain.class_matrix is None:
            raise InvalidParameter("domain document has no class_matrix")
        cls = FiniteClass(domain.class_matrix)
    lines = ["gamma,fat,dual_fat"]
    for g in gammas:
        fat = fat_shattering(cls, g, max_points=args.max_points,
                             max_hypotheses=args.max_hypotheses)
        dual = dual_fat_shattering(cls, g, max_points=args.max_points,
                                   max_hypotheses=args.max_hypotheses)
        lines.append(f"{g},{fat},{dual}")
    return "\n".join(lines) + "\n"


def _cmd_cover(args) -> str:
    domain = _require_config(args)
    oracle = _oracle_from(domain)
    inflated = inflate(list(domain.sample), domain.perturbations)
    pool = [oracle.hypothesis(i) for i in range(oracle.cls.n_hypotheses)]
    dual = dual_embed(pool, inflated)
    centers, assignment = greedy_cover(dual, args.t)
    lines = ["point,center"]
    lines += [f"{i},{c}" for i, c in enumerate(assignment)]
    return "\n".join(lines) + "\n"


def _cmd_learn(args, name: str) -> str:
    domain = _require_config(args)
    oracle = _oracle_from(domain)
    sample = list(domain.sample)
    U = domain.perturbations
    cfg = PipelineConfig()
    seed = args.seed if args.seed is not None else 0
    if name == "learn-proper":
        report = proper_learn(oracle, sample, U, args.eta, args.epsilon, cfg, seed)
    elif name == "learn-improper":
        report = improper_learn(oracle, sample, U, args.eta, cfg, seed)
    elif name == "agnostic-eta":
        report = agnostic_eta_learn(oracle, sample, U, args.eta, cfg, seed)
    elif name == "regress":
        report = realizable_regression(oracle, sample, U, args.epsilon, args.p,
                                       cfg, seed)
    else:
        if not domain.holdout:
            raise InvalidParameter("agnostic-regress needs a holdout in the domain document")
        report = agnostic_regression(oracle, sample, list(domain.holdout), U,
                                     args.epsilon, args.delta, args.p, cfg, seed)
    return report.to_json() + "\n"


def _cmd_bounds(args) -> str:
    if args.theorem:
        for field_name in ("fat", "fat_star", "epsilon"):
            if getattr(args, field_name) is None:
                raise InvalidParameter(f"missing --{field_name.replace('_', '-')}")
        value = sample_complexity(args.theorem, args.fat, args.fat_star,
                                  args.epsilon, args.delta, eta=args.eta,
                                  p=args.p, c=args.c,
                                  suppress_logs=not args.with_logs)
        return f"{value}\n"
    if args.kind is None or args.k is None or args.m is None:
        raise InvalidParameter("missing --kind/--k/--m (or use --theorem)")
    value = generalization_bound(args.kind, args.k, args.m, args.delta,
                                 empirical=args.empirical, c=args.c)
    return f"{value}\n"


def _cmd_experiment(args) -> str:
    if not args.config:
        raise InvalidParameter("missing --config")
    config = ExperimentConfig.from_json(args.config)
    rows = run_experiment(config)
    return write_csv(rows)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage()
        return 1
    try:
        if args.command == "gen":
            text = _cmd_gen(args)
        elif args.command == "fatdim":
            text = _cmd_fatdim(args)
        elif args.command == "cover":
            text = _cmd_cover(args)
        elif args.command in ("learn-proper", "learn-improper", "agnostic-eta",
                              "regress", "agnostic-regress"):
            text = _cmd_learn(args, args.command)
        elif args.command == "bounds":
            text = _cmd_bounds(args)
        elif args.command == "experiment":
            text = _cmd_experiment(args)
        else:  # pragma: no cover
            parser.print_usage()
            return 1
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RobustRegError as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
