"""The one in-process runner of the CLI that the tests share."""

import contextlib
import io
import types

from cavityherald.cli import main


def run_cli(*args):
    """Run `cavityherald *args` in this process with stdout and stderr
    captured: its exit_code, stdout, stderr and output (stdout, then
    stderr). An exception that the CLI does not turn into an exit code
    propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main.main(list(args), standalone_mode=False)
    return types.SimpleNamespace(exit_code=code, stdout=out.getvalue(),
                                 stderr=err.getvalue(),
                                 output=out.getvalue() + err.getvalue())
