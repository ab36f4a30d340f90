"""Toolkit for validating debloated program variants against their originals.

Combines differential testing with template-based mutational fuzzing, binary
size/library metrics, and code-reuse gadget set analysis.
"""

import errno

__version__ = "0.1.0"

# Errnos that say the host ran out of a resource: no program or binary is at fault.
_HOST_ERRNOS = frozenset({errno.EAGAIN, errno.EMFILE, errno.ENFILE, errno.ENOMEM})


class InputError(Exception):
    """Bad input or an unusable environment: the CLI exits 2 with the message,
    which names the offending path, instead of a traceback."""


class NotComparableError(Exception):
    """A percentage delta is undefined because its baseline is zero."""
