"""What the tests share: the one in-process runner of the CLI, and the
stored state of a record."""

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


def state(record):
    """What a record instance stores, by name, as vars() listed it before
    records had slots: each filled slot in layout order, then each cached
    value in the instance __dict__, where its class has one."""
    stored = {name: getattr(record, name) for name in type(record).__slots__
              if name not in ("__dict__", "__weakref__")
              and hasattr(record, name)}
    stored.update(getattr(record, "__dict__", {}))
    return stored
