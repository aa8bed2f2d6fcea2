"""Command-line interface.

Exit codes: 0 on success, 1 on validation errors (bad flags or config),
2 on runtime failures (a pipeline that could not complete).
"""

from __future__ import annotations

import argparse
import sys

from .core import inflate, load_domain
from .dimensions import dual_fat_shattering, fat_shattering, greedy_cover
from .compression import generalization_bound
from .errors import InvalidParameter, RobustRegError
from .harness import ExperimentConfig, gen_instance, instance_to_domain_json, run_experiment, write_csv
from .oracles import FiniteClass, FiniteClassOracle, load_class_csv
from .pipelines import dual_embed, run_pipeline


# learn subcommands: the pipeline each runs and the parameters it takes
LEARN = {
    "learn-proper": ("proper", ("eta", "epsilon")),
    "learn-improper": ("improper", ("eta",)),
    "agnostic-eta": ("agnostic-eta", ("eta",)),
    "regress": ("regress", ("epsilon", "p")),
    "agnostic-regress": ("agnostic-regress", ("epsilon", "delta", "p")),
}


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

    for name, (_, params) in LEARN.items():
        sp = sub.add_parser(name, parents=[common])
        for param in params:
            sp.add_argument(f"--{param}", type=float, required=param in ("eta", "epsilon"),
                            default={"delta": 0.1, "p": 1.0}.get(param))

    sp = sub.add_parser("bounds", parents=[common],
                        help="compression generalization bounds")
    sp.add_argument("--kind", choices=["realizable", "agnostic", "bernstein"], required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--empirical", type=float, default=0.0)
    sp.add_argument("--c", type=float, default=1.0)

    sub.add_parser("experiment", parents=[common],
                   help="run a sweep and write CSV rows")
    return p


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_config(args, load=load_domain):
    if not args.config:
        raise InvalidParameter("missing --config")
    return load(args.config)


def _oracle_from(domain):
    if domain.class_matrix is None:
        raise InvalidParameter("domain document has no class_matrix")
    return FiniteClassOracle(FiniteClass(domain.class_matrix))


def _cmd_gen(args) -> str:
    config = _require_config(args, ExperimentConfig.from_json)
    seed = args.seed if args.seed is not None else config.seed
    cls, U, sample, holdout = gen_instance(config, seed, m=args.m)
    return instance_to_domain_json(cls, U, sample, holdout) + "\n"


def _cmd_fatdim(args) -> str:
    if not args.gamma or min(args.gamma) <= 0:
        raise InvalidParameter(f"--gamma must be given and positive, got {args.gamma}")
    if args.matrix:
        cls = load_class_csv(args.matrix)
    else:
        cls = _oracle_from(_require_config(args)).cls
    caps = {"max_points": args.max_points, "max_hypotheses": args.max_hypotheses}
    lines = ["gamma,fat,dual_fat"]
    for g in args.gamma:
        fat, dual = fat_shattering(cls, g, **caps), dual_fat_shattering(cls, g, **caps)
        lines.append(f"{g},{fat},{dual}")
    return "\n".join(lines) + "\n"


def _cmd_cover(args) -> str:
    domain = _require_config(args)
    oracle = _oracle_from(domain)
    inflated = inflate(list(domain.sample), domain.perturbations)
    pool = [oracle.cls.hypothesis(i) for i in range(oracle.cls.n_hypotheses)]
    dual = dual_embed(pool, inflated)
    centers, assignment = greedy_cover(dual, args.t)
    lines = ["point,center"]
    lines += [f"{i},{c}" for i, c in enumerate(assignment)]
    return "\n".join(lines) + "\n"


def _cmd_learn(args) -> str:
    domain = _require_config(args)
    pipeline, params = LEARN[args.command]
    report = run_pipeline(pipeline, _oracle_from(domain), list(domain.sample),
                          domain.perturbations, holdout=list(domain.holdout),
                          seed=args.seed if args.seed is not None else 0,
                          **{k: getattr(args, k) for k in params})
    return report.to_json() + "\n"


def _cmd_bounds(args) -> str:
    value = generalization_bound(args.kind, args.k, args.m, args.delta,
                                 empirical=args.empirical, c=args.c)
    return f"{value}\n"


def _cmd_experiment(args) -> str:
    rows = run_experiment(_require_config(args, ExperimentConfig.from_json))
    return write_csv(rows)


COMMANDS = {
    "gen": _cmd_gen, "fatdim": _cmd_fatdim, "cover": _cmd_cover,
    **dict.fromkeys(LEARN, _cmd_learn),
    "bounds": _cmd_bounds, "experiment": _cmd_experiment,
}


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
        text = COMMANDS[args.command](args)
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
