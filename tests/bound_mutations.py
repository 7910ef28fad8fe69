"""Which terms of the certified bounds do the tests need?

Drops one bound term at a time on a temporary copy of the package and runs
tests/test_soundness.py, tests/test_analysis.py, tests/test_series_kernel.py,
tests/test_contract.py and tests/test_identities.py on it, without the two
digest tests, which catch any change at all.  A drop
that fails a test is "caught"; one that passes every test is "missed": either
the term is larger than it has to be or the tests lack an input that needs it.

    python tests/bound_mutations.py

Prints one caught/missed line per term.  Exits 1 unless the missed terms are
exactly KNOWN_MISSED: a newly missed term is a test that stopped needing it,
and a newly caught one belongs off the list.  Takes a few minutes; the file
name keeps pytest from collecting it.
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
IDENTITIES = "src/geomfree/identities.py"
TEST_FILES = ("tests/test_soundness.py", "tests/test_analysis.py", "tests/test_series_kernel.py",
              "tests/test_contract.py", "tests/test_identities.py")
DIGEST_TESTS = ("tests/test_soundness.py::test_kernel_outputs_match_the_recorded_digest",
                "tests/test_soundness.py::test_arcsin_outputs_match_the_recorded_digest")

# the one sum rule of +, - and reflected -, _sum's bound: (term, its drop)
_RETURN = "return _checked(CertifiedValue, s, "
_SUM_BOUND = "(e + f + _U * abs(s)) * _UP3)"
_SUM_DROPS = (("e", "(f + _U * abs(s)) * _UP3)"), ("f", "(e + _U * abs(s)) * _UP3)"),
              ("u |s|", "(e + f) * _UP3)"), ("round-up", "(e + f + _U * abs(s)))"))

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
     "k_err = (split / scale + tbl.refined_radius) * (1.0 + 2.0 ** -49)", "k_err = 0.0"),
    ("kernel: the reduction's two roundings", KERNEL,
     "red_err += _U * (ap + abs(lo))", "pass"),
    ("kernel: u |value|", KERNEL, " + _U * abs(val) + _UNDERFLOW)", " + _UNDERFLOW)"),
    ("kernel: the underflow allowance", KERNEL,
     " + _U * abs(val) + _UNDERFLOW)", " + _U * abs(val))"),
    ("kernel: _ROUND_UP", KERNEL, "_ROUND_UP = 1.0 + 2.0 ** -40", "_ROUND_UP = 1.0"),
    ("tiny row: t |x| z", KERNEL, "(_SIN_K0 * ax * z + _U * ax", "(_U * ax"),
    ("tiny row: u |x|", KERNEL, "(_SIN_K0 * ax * z + _U * ax", "(_SIN_K0 * ax * z"),
    ("tiny row: cosine's u", KERNEL, "_COS_TINY = (_U + _UNDERFLOW)", "_COS_TINY = (_UNDERFLOW)"),
    ("arcsin: 1/cos_lo, d = 0", ANALYSIS, "bound = e / cos_lo * _UP3", "bound = e * _UP3"),
    ("arcsin: 1/cos_lo, step", ANALYSIS, "bound = (e / cos_lo + d * d", "bound = (e + d * d"),
    ("arcsin: d^2", ANALYSIS, "e / cos_lo + d * d + 16.0", "e / cos_lo + 16.0"),
    ("arcsin: 16u |dy|", ANALYSIS, " + 16.0 * _U * abs(dy)", ""),
    ("arcsin: Fast2Sum |r|", ANALYSIS, " + abs(r) + _UNDERFLOW", " + _UNDERFLOW"),
    ("arcsin: four_q_err/4", ANALYSIS, " + 0.25 * tbl.four_q_err", ""),
    ("arcsin: 3u comp/|x|", ANALYSIS, " + 3.0 * _U * comp / ax", ""),
    ("arcsin: reflected u |y|", ANALYSIS, " + _U * y) * (1.0 + 2.0 ** -50)",
     ") * (1.0 + 2.0 ** -50)"),
    *((f"sum: {term}", KERNEL, _RETURN + _SUM_BOUND, _RETURN + dropped)
      for term, dropped in _SUM_DROPS),
    ("product: |sv| e", KERNEL, "b = (abs(sv) * e\n             + abs(w) * se", "b = (abs(w) * se"),
    ("product: |w| se", KERNEL, "\n             + abs(w) * se\n", "\n"),
    ("product: se e", KERNEL, "\n             + se * e\n", "\n"),
    ("product: u |v|", KERNEL, "\n             + _U * abs(v)\n             + 2.0 * _TINY)",
     "\n             + 2.0 * _TINY)"),
    ("product: 2 _TINY", KERNEL, "\n             + 2.0 * _TINY)  #", ")  #"),
    ("product: round-up", KERNEL, "return _checked(CertifiedValue, v, b * _UP6)",
     "return _checked(CertifiedValue, v, b)"),
    ("constructor: an int's round-up", KERNEL, "(abs_error_bound + err) * _UP3",
     "(abs_error_bound + err)"),
    ("_at: u |arg|", IDENTITIES, "bound + (_U * abs(arg) + arg_err)", "bound + arg_err"),
    ("_at: round-up", IDENTITIES, "(bound + (_U * abs(arg) + arg_err)) * _UP3",
     "(bound + (_U * abs(arg) + arg_err))"),
    ("unit_circle_point: 3u comp", ANALYSIS, "(comp, s_err + 3.0 * _U * comp)", "(comp, s_err)"),
)


# the drops that no test catches: cosine's Horner H, the underflow allowance,
# _ROUND_UP and k k_err are below what a binary64 input can realize, and arcsin's
# d^2, 16u |dy| and four_q_err/4 are tiny by design
KNOWN_MISSED = frozenset({
    "kernel: cosine's Horner H",
    "kernel: k k_err (table and general path)",
    "kernel: the underflow allowance",
    "kernel: _ROUND_UP",
    "arcsin: d^2",
    "arcsin: 16u |dy|",
    "arcsin: four_q_err/4",
    "unit_circle_point: 3u comp",
})


def _run_tests(tree):
    """True if the TEST_FILES pass on the package copy at `tree`."""
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
        missed = set()
        for term, path, text, replacement in MUTATIONS:
            source = (ROOT / path).read_text()
            if source.count(text) != 1:
                raise SystemExit(f"{term}: {text!r} occurs {source.count(text)} times in {path}")
            (tree / path).write_text(source.replace(text, replacement))
            try:
                caught = not _run_tests(tree)
            finally:
                (tree / path).write_text(source)
            if not caught:
                missed.add(term)
            note = "" if caught != (term in KNOWN_MISSED) else "  (not as KNOWN_MISSED says)"
            print(f"{'caught' if caught else 'MISSED':<7} {term}{note}", flush=True)
        print(f"{len(MUTATIONS) - len(missed)} of {len(MUTATIONS)} drops caught")
        if missed != KNOWN_MISSED:
            differ = sorted(missed ^ KNOWN_MISSED)
            raise SystemExit(f"missed drops differ from KNOWN_MISSED: {differ}")


if __name__ == "__main__":
    main()
