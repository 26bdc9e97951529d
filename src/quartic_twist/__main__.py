"""The process entry: `python -m quartic_twist` and the `quartic-twist`
console script both call `run`."""

import gc
import sys


def run() -> int:
    """Answer the request in `sys.argv` and return its exit status.

    The process ends when `run` returns, and nothing a request builds is a
    cycle worth freeing before then, so the collector is off from the
    imports on.  The interpreter still collects once at shutdown, over every
    object the imports and the report left; freezing them moves them to the
    permanent generation, which that collection skips.  The atexit handlers,
    the flush of stdout and stderr and the module teardown still run."""
    gc.disable()
    from .cli import main

    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
