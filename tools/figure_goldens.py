#!/usr/bin/env python3
"""Checks or regenerates the paper-figure goldens.

Usage:
  figure_goldens.py check BINARY GOLDEN
  figure_goldens.py regen BUILD_DIR

Every file tests/golden/figures/NAME.txt holds the exact stdout of the
figure binary NAME (bench_fig01..09, 11, 12 and the stable extension
binaries); CMake registers one `NAME_golden` CTest entry per file.

`check` runs BINARY with no arguments and compares its stdout with GOLDEN
byte for byte.  On a mismatch (or a non-zero exit) it prints a unified
diff and exits 1, so a change that shifts a figure cannot pass silently.

`regen` reruns every binary named in tests/golden/figures/ from BUILD_DIR
and rewrites its golden.  A change that regenerates goldens lists each
changed line and its reason in CHANGES.md.
"""

import difflib
import pathlib
import subprocess
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / \
    "golden" / "figures"


def run(binary):
    result = subprocess.run([str(binary)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, check=False)
    return result.returncode, result.stdout, result.stderr


def check(binary, golden):
    code, out, err = run(binary)
    expected = pathlib.Path(golden).read_bytes()
    if code == 0 and out == expected:
        return 0
    if code != 0:
        print(f"{binary} exited {code}; stderr:")
        sys.stdout.write(err.decode(errors="replace"))
    diff = difflib.unified_diff(
        expected.decode(errors="replace").splitlines(keepends=True),
        out.decode(errors="replace").splitlines(keepends=True),
        fromfile=str(golden), tofile=f"{binary} (stdout)")
    sys.stdout.writelines(diff)
    print(f"figure golden mismatch: {golden}")
    return 1


def regen(build_dir):
    goldens = sorted(GOLDEN_DIR.glob("*.txt"))
    if not goldens:
        print(f"no goldens under {GOLDEN_DIR}")
        return 1
    for golden in goldens:
        binary = pathlib.Path(build_dir) / golden.stem
        code, out, err = run(binary)
        if code != 0:
            sys.stdout.write(err.decode(errors="replace"))
            print(f"{binary} exited {code}; {golden.name} left as it was")
            return 1
        changed = golden.read_bytes() != out
        golden.write_bytes(out)
        print(f"{'rewrote' if changed else 'unchanged'} {golden.name}")
    return 0


def main(argv):
    if len(argv) == 4 and argv[1] == "check":
        return check(argv[2], argv[3])
    if len(argv) == 3 and argv[1] == "regen":
        return regen(argv[2])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
