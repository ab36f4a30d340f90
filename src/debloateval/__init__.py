"""Toolkit for validating debloated program variants against their originals.

Combines differential testing with template-based mutational fuzzing, binary
size/library metrics, and code-reuse gadget set analysis.
"""

__version__ = "0.1.0"


class InputError(Exception):
    """Bad input or an unusable environment: the CLI exits 2 with the message,
    which names the offending path, instead of a traceback."""
