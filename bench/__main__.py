"""Command line: ``python -m bench {run,compare,capture-golden}``."""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

from bench import ROOT, CheckoutError, use_checkout_src


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run one workload (or --all) and print its metrics")
    which = run.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="workload name")
    which.add_argument("--all", action="store_true",
                       help="every workload, each in a fresh process")
    run.add_argument("--seed", type=int, default=0,
                     help="input seed (same seed, same inputs)")
    run.add_argument("--seconds", type=float, default=15.0,
                     help="measured time per phase, in whole rounds")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1),
                     help="add a traced phase and report per-layer metrics")
    run.add_argument("--ops", type=int, default=None,
                     help="run exactly this many ops per phase instead")
    run.add_argument("--out", type=pathlib.Path, default=None,
                     help="append the run record to this JSONL file")

    compare = commands.add_parser(
        "compare", help="compare parent and change run records")
    compare.add_argument("parent", type=pathlib.Path)
    compare.add_argument("change", type=pathlib.Path)
    compare.add_argument("--claim", action="append", default=[],
                         metavar="METRIC@WORKLOAD",
                         help="a gain to test by the pair rule")

    commands.add_parser(
        "capture-golden", help="recompute bench/golden.json from the program")
    return parser


def _run_all(args: argparse.Namespace) -> int:
    from bench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [sys.executable, "-m", "bench", "run", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.ops is not None:
            command += ["--ops", str(args.ops)]
        if args.out is not None:
            command += ["--out", str(args.out.resolve())]
        status |= subprocess.run(command, cwd=ROOT, check=False).returncode
    return 1 if status else 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from bench.compare import compare

        try:
            lines, ok = compare(args.parent, args.change,
                                ROOT / "BENCHMARK.json", args.claim)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        return 0 if ok else 1
    try:
        use_checkout_src()
    except (CheckoutError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "capture-golden":
        import tempfile

        from bench.workloads import GOLDEN_PATH, capture_golden

        with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
            golden = capture_golden(pathlib.Path(tmp))
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                               + "\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    if args.all:
        return _run_all(args)
    from bench.runner import main_run
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.ops is not None and args.ops < 1 or args.seconds < 0:
        print("error: --ops must be at least 1 and --seconds not negative",
              file=sys.stderr)
        return 2
    return main_run(args.workload, args.seed, args.seconds, bool(args.trace),
                    args.ops, args.out)


if __name__ == "__main__":
    sys.exit(main())
