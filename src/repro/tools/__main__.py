"""``python -m repro.tools <subcommand>``: the one argument parser.

Every tool module registers itself through ``add_parser(sub)`` and is
dispatched through the ``run(args)`` it set as its parser default.
"""

import argparse
import sys

from repro.tools import (analyze, critpath, inspect, lint, regress, report,
                         trace)


def main(argv=None) -> int:
    """Parse ``argv`` and run the selected subcommand."""
    ap = argparse.ArgumentParser(
        prog="repro.tools",
        description="Inspect, run, analyze and gate simulated LowFive "
                    "workflows; each subcommand has its own --help.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for tool in (inspect, trace, critpath, analyze, lint, regress, report):
        tool.add_parser(sub)
    args = ap.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
