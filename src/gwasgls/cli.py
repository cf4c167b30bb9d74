"""Command-line front end for dataset generation, the three solver
engines and result verification.

Exit codes: 0 success, 2 usage/configuration and memory exhausted
(MemoryError), 3 data/file errors (any OSError) and transport failures
(TransportFailure, a dist rank lost), 4 numerical errors. Failures
print a single machine-parsable line ``error code=<int> msg="..."`` on
stderr.
"""

from __future__ import annotations

import argparse
import gc
# argparse's messages import locale on first use; imported here, a run
# does not pay for it inside its set-up
import locale  # noqa: F401
import sys

from . import datagen, distgrid, pipeline, transport
from .errors import (
    ConfigError,
    GwasGlsError,
    NotPositiveDefinite,
    RankDeficientCovariates,
)

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# the options of `solve` beside its files, and those each mode takes; a
# mode would ignore any other, so it is refused
SOLVE_OPTIONS = ("block_size", "np", "transport", "emit_sinv")
MODE_OPTIONS = {
    "incore": {"emit_sinv"},
    "ooc": {"block_size", "emit_sinv"},
    "dist": {"block_size", "np", "transport", "emit_sinv"},
    "oracle": set(),
}


def _fail(code, msg):
    print(f'error code={code} msg="{msg}"', file=sys.stderr)
    return code


def _classify(exc):
    if isinstance(exc, (NotPositiveDefinite, RankDeficientCovariates)):
        return EXIT_NUMERICAL
    if isinstance(exc, (ConfigError, MemoryError)):
        return EXIT_USAGE
    if isinstance(exc, (GwasGlsError, OSError)):
        return EXIT_DATA
    raise exc


def cmd_gen(args):
    spec = datagen.GenSpec(n=args.n, m=args.m, p=args.p, seed=args.seed)
    paths = datagen.gen_dataset(spec, args.out)
    print(f"gen n={spec.n} m={spec.m} p={spec.p} seed={spec.seed} "
          f"out={args.out} geno={paths.geno}")
    return 0


def cmd_solve(args):
    for dest in SOLVE_OPTIONS:
        if (dest not in MODE_OPTIONS[args.mode]
                and getattr(args, dest) not in (None, False)):
            raise ConfigError(f"--{dest.replace('_', '-')} does not apply "
                              f"to --mode {args.mode}")
    paths = pipeline.SolvePaths(cov=args.cov, covariates=args.covariates,
                                pheno=args.pheno, geno=args.geno, out=args.out)
    if args.mode == "oracle":
        datagen.oracle_solve_all(paths)
        print(f"mode=oracle out={args.out}")
        return 0
    cfg = pipeline.SolveConfig(m_blk=args.block_size, emit_s_inv=args.emit_sinv)
    if args.mode == "dist":
        summary = transport.run_spmd(
            1 if args.np is None else args.np, distgrid.run_dist, paths, cfg,
            transport=args.transport or "inproc")[0]
    else:
        runner = pipeline.run_incore if args.mode == "incore" else pipeline.run_ooc
        summary = runner(paths, cfg)
    print(summary.to_record())
    return 0


def cmd_verify(args):
    report = datagen.compare_results(args.a, args.b, args.tol)
    print(f"verify max_rel={report.max_rel_discrepancy:.3e} "
          f"status_mismatches={report.status_mismatches} "
          f"compared={report.compared} tol={report.tol:.1e} "
          f"within={report.within}")
    return report.exit_code


def build_parser():
    ap = argparse.ArgumentParser(prog="gwasgls")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("solve", help="run one of the solver engines")
    s.add_argument("--mode", choices=["incore", "ooc", "dist", "oracle"],
                   required=True)
    s.add_argument("--cov", required=True)
    s.add_argument("--covariates", required=True)
    s.add_argument("--pheno", required=True)
    s.add_argument("--geno", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--block-size", type=int, default=None)
    s.add_argument("--np", type=int)  # dist: 1 rank unless given
    s.add_argument("--transport", choices=["inproc", "socket"])  # dist: inproc
    s.add_argument("--emit-sinv", action="store_true")
    s.set_defaults(fn=cmd_solve)

    v = sub.add_parser("verify", help="compare two result files")
    v.add_argument("--a", required=True)
    v.add_argument("--b", required=True)
    v.add_argument("--tol", type=float, required=True)
    v.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None):
    # Objects that exist now live for the whole run. Frozen, no cyclic
    # collection scans them, so one cannot land at a chance point of the
    # set-up; a forked dist rank does not touch their pages either.
    if not gc.get_freeze_count():
        gc.freeze()
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_USAGE
    try:
        return args.fn(args)
    except Exception as e:
        msg = str(e) or type(e).__name__  # a bare MemoryError has no text
        return _fail(_classify(e), msg.replace('"', "'"))


if __name__ == "__main__":
    sys.exit(main())
