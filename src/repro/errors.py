"""The errors ``repro`` raises about its input, not about itself.

``repro.cli.main`` catches a :class:`ReproError` (and an ``OSError``),
prints ``"<command>: <message>"`` on stderr and exits 2; any other
exception is a bug and propagates as a traceback.  Neither class has an
``__init__`` of its own, so both pickle through a process pool unchanged.
"""

__all__ = ["InputError", "ReproError"]


class ReproError(Exception):
    """An error about the program's input or setup, not a bug."""


class InputError(ReproError, ValueError):
    """Bad input from outside -- a file (the message names ``path:line``),
    an argument, a variable's value; also a ``ValueError``."""
