#!/usr/bin/env python3
"""Reproduce the whole paper in one run.

Executes every table/figure experiment plus the extensions and writes the
markdown report.  Use ``--fast`` for a quick shape check; the default
runs the full 24-benchmark suite and takes a few minutes.

Run:  python examples/reproduce_paper.py [--fast] [-o report.md]
"""

import argparse
import time

from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.report import generate_report

FAST = ExperimentSettings(
    trace_length=8_000,
    warmup=2_500,
    benchmarks=("mpeg2", "mcf", "susan", "yacr2", "swim", "adpcm"),
    thermal_grid=48,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("-o", "--output", default="report.md")
    args = parser.parse_args()

    context = ExperimentContext(FAST if args.fast else ExperimentSettings())
    started = time.time()
    report = generate_report(context)
    elapsed = time.time() - started

    with open(args.output, "w", encoding="utf-8") as stream:
        stream.write(report)
    print(f"wrote {args.output} in {elapsed:.0f}s")

    # Show the headline comparison on stdout.
    in_headline = False
    for line in report.splitlines():
        if line.startswith("## Headline"):
            in_headline = True
        elif line.startswith("## ") and in_headline:
            break
        if in_headline:
            print(line)


if __name__ == "__main__":
    main()
