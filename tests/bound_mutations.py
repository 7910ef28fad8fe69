"""Which terms of the certified bounds do the tests need?

Drops one bound term at a time on a temporary copy of the package and runs
tests/test_soundness.py, tests/test_analysis.py and tests/test_series_kernel.py
on it, without the two digest tests, which catch any change at all.  A drop
that fails a test is "caught"; one that passes every test is "missed": either
the term is larger than it has to be or the tests lack an input that needs it.

    python tests/bound_mutations.py

Prints one caught/missed line per term.  Takes a few minutes; the file name
keeps pytest from collecting it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL = "src/geomfree/series_kernel.py"
ANALYSIS = "src/geomfree/analysis.py"
TEST_FILES = ("tests/test_soundness.py", "tests/test_analysis.py", "tests/test_series_kernel.py")
DIGEST_TESTS = ("tests/test_soundness.py::test_kernel_outputs_match_the_recorded_digest",
                "tests/test_soundness.py::test_arcsin_outputs_match_the_recorded_digest")

# (term, file, text, replacement): each text must occur exactly once
MUTATIONS = (
    ("kernel: the row's t + H", KERNEL,
     "bound = (k * m * z + c_lo", "bound = (c_lo"),
    ("kernel: sine's Horner H", KERNEL, " + 0.95 * _U  #", "  #"),
    ("kernel: cosine's Horner H", KERNEL, " + 0.28 * _U\n", "\n"),
    ("kernel: c_lo |r_lo|", KERNEL, "c_lo * abs(r_lo) + red_err", "red_err"),
    ("kernel: the reduction term red_err", KERNEL,
     "c_lo * abs(r_lo) + red_err + _U", "c_lo * abs(r_lo) + _U"),
    ("kernel: the table's parts of red_err, |k Q3| and k k_err", KERNEL,
     "abs(k * q3), k * k_err, quadrants", "0.0, 0.0, quadrants"),
    ("kernel: k k_err (table and general path)", KERNEL,
     "k_err = (float(split) + tbl.refined_radius) * (1.0 + 2.0 ** -49)", "k_err = 0.0"),
    ("kernel: the reduction's two roundings", KERNEL,
     "red_err += _U * (ap + abs(lo))", "pass"),
    ("kernel: u |value|", KERNEL, " + _U * abs(val) + _UNDERFLOW)", " + _UNDERFLOW)"),
    ("kernel: the underflow allowance", KERNEL,
     " + _U * abs(val) + _UNDERFLOW)", " + _U * abs(val))"),
    ("kernel: _ROUND_UP", KERNEL, "_ROUND_UP = 1.0 + 2.0 ** -40", "_ROUND_UP = 1.0"),
    ("tiny row: t |x| z", KERNEL, "(_SIN_K0 * ax * z + _U * ax", "(_U * ax"),
    ("tiny row: u |x|", KERNEL, "(_SIN_K0 * ax * z + _U * ax", "(_SIN_K0 * ax * z"),
    ("tiny row: cosine's u", KERNEL, "_COS_TINY = (_U + _UNDERFLOW)", "_COS_TINY = (_UNDERFLOW)"),
    ("arcsin: 1/cos_lo, d = 0", ANALYSIS, "bound = e / cos_lo * (", "bound = e * ("),
    ("arcsin: 1/cos_lo, step", ANALYSIS, "bound = (e / cos_lo + d * d", "bound = (e + d * d"),
    ("arcsin: d^2", ANALYSIS, "e / cos_lo + d * d + 16.0", "e / cos_lo + 16.0"),
    ("arcsin: 16u |dy|", ANALYSIS, " + 16.0 * _U * abs(dy)", ""),
    ("arcsin: Fast2Sum |r|", ANALYSIS, " + abs(r) + _UNDERFLOW", " + _UNDERFLOW"),
    ("arcsin: four_q_err/4", ANALYSIS, " + 0.25 * tbl.four_q_err", ""),
    ("arcsin: 3u comp/|x|", ANALYSIS, " + 3.0 * _U * comp / ax", ""),
    ("arcsin: reflected u |y|", ANALYSIS, " + _U * y) * (1.0 + 2.0 ** -50)",
     ") * (1.0 + 2.0 ** -50)"),
)


def _run_tests(tree):
    """True if the three test files pass on the package copy at `tree`."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TEST_FILES]
    for test in DIGEST_TESTS:
        cmd += ["--deselect", test]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(cmd, cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if done.returncode not in (0, 1):  # 1 is "some test failed"; anything else broke the run
        raise RuntimeError(f"pytest exited with {done.returncode}")
    return done.returncode == 0


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if not _run_tests(tree):
            raise SystemExit("the unmutated tree fails its tests")
        missed = 0
        for term, path, text, replacement in MUTATIONS:
            source = (ROOT / path).read_text()
            if source.count(text) != 1:
                raise SystemExit(f"{term}: {text!r} occurs {source.count(text)} times in {path}")
            (tree / path).write_text(source.replace(text, replacement))
            try:
                caught = not _run_tests(tree)
            finally:
                (tree / path).write_text(source)
            missed += not caught
            print(f"{'caught' if caught else 'MISSED':<7} {term}", flush=True)
        print(f"{len(MUTATIONS) - missed} of {len(MUTATIONS)} drops caught")


if __name__ == "__main__":
    main()
