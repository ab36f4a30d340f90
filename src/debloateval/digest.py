"""SHA-256 from CPython's built-in module.

``hashlib`` loads OpenSSL's libcrypto on import, about 3.4 MiB resident
for a few short digests; the built-in module computes the same ones.
CPython's own ``random`` loads ``_sha512`` this way.
"""

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:  # an interpreter built without them
        from hashlib import sha256

Hash = type(sha256())
