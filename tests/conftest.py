"""A test run writes no bytecode: the interpreter running the tests leaves no
``__pycache__`` under ``src/``, so a later cold start of the CLI compiles its
modules as a fresh checkout does (the subprocesses of the tests pass -B)."""

import sys

sys.dont_write_bytecode = True
