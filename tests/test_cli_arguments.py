"""The CLI over its argument space: every small input ends in an exit code,
never in a traceback."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from geomfree.cli import main

small = st.integers(min_value=-3, max_value=12)


def run(argv):
    """(exit code, stderr) of one in-process CLI run; stdout is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


verify_argvs = st.builds(
    lambda suite, degree, samples, seed, out: (
        ["verify", "--suite", suite, "--degree", str(degree), "--samples", str(samples),
         "--seed", str(seed)] + (["--out", out] if out else [])),
    st.sampled_from(("exact", "numeric", "all")), small, small,
    st.integers(min_value=0, max_value=3),
    st.sampled_from((None, "report.json", "missing_dir/report.json", ".")),
)
bench_argvs = st.builds(
    lambda n, seed: ["bench", "--n", str(n), "--seed", str(seed), "--format", "json"],
    st.sampled_from((-1, 0, 1, 99, 100, 101)), st.integers(min_value=0, max_value=3),
)


@settings(max_examples=30, deadline=None)
@given(st.one_of(verify_argvs, bench_argvs))
def test_exit_code_without_traceback(tmp_path_factory, argv):
    workdir = tmp_path_factory.mktemp("cli")
    argv = [str(workdir / a) if a in ("report.json", "missing_dir/report.json", ".") else a
            for a in argv]
    code, err = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
