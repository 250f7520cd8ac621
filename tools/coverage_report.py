#!/usr/bin/env python3
"""Prints executed/total source lines per src/<layer> after a coverage run.

Usage: tools/coverage_report.py BUILD_DIR [FILE ...]

BUILD_DIR is a tree configured with `--coverage -O0` whose tests have run.
Each library source file is counted once, from its own object, with
`gcov -n` (no .gcov files are written); an object no test linked has no
.gcda file and counts as wholly unrun.
Named FILEs (e.g. src/mpi/mpi_ops.cc) are also printed one by one. The
report is informational: the exit status is 0 whatever the coverage.
"""

import collections
import os
import re
import subprocess
import sys

FILE_RE = re.compile(r"^File '(.*)'$")
LINES_RE = re.compile(r"^Lines executed:\s*([0-9.]+)% of (\d+)$")


def gcov_lines(gcno):
    """Returns {source path: (executed, total)} for one object."""
    out = subprocess.run(["gcov", "-n", gcno], capture_output=True,
                         text=True, cwd=os.path.dirname(gcno)).stdout
    result, current = {}, None
    for line in out.splitlines():
        m = FILE_RE.match(line)
        if m:
            current = os.path.normpath(m.group(1))
            continue
        m = LINES_RE.match(line)
        if m and current is not None:
            total = int(m.group(2))
            result[current] = (round(float(m.group(1)) * total / 100), total)
            current = None
    return result


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 0
    build = os.path.abspath(sys.argv[1])
    named = [os.path.normpath(f) for f in sys.argv[2:]]
    objdir = os.path.join(build, "CMakeFiles", "modularis.dir")
    per_file = {}
    for root, _, files in os.walk(objdir):
        for name in files:
            if not name.endswith(".cc.gcno"):
                continue
            source = name[:-len(".gcno")]
            for path, counts in gcov_lines(os.path.join(root, name)).items():
                if path.endswith(os.sep + source) and "/src/" in path:
                    per_file[path] = counts
    layers = collections.defaultdict(lambda: [0, 0])
    for path, (hit, total) in per_file.items():
        layer = path.split("/src/", 1)[1].split("/", 1)[0]
        layers[layer][0] += hit
        layers[layer][1] += total
    print(f"{'layer':<14}{'executed':>10}{'total':>8}{'unrun':>8}{'pct':>8}")
    all_hit = all_total = 0
    for layer in sorted(layers):
        hit, total = layers[layer]
        all_hit += hit
        all_total += total
        print(f"{layer:<14}{hit:>10}{total:>8}{total - hit:>8}"
              f"{100.0 * hit / max(total, 1):>7.1f}%")
    print(f"{'total':<14}{all_hit:>10}{all_total:>8}{all_total - all_hit:>8}"
          f"{100.0 * all_hit / max(all_total, 1):>7.1f}%")
    for want in named:
        for path, (hit, total) in sorted(per_file.items()):
            if path.endswith(os.sep + want):
                print(f"{want}: {hit}/{total} lines executed, "
                      f"{total - hit} unrun")
    return 0


if __name__ == "__main__":
    sys.exit(main())
