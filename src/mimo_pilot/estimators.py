"""Names of the two uplink channel estimators, least squares and MMSE.

Both correlate the received pilot block with a user's sequence; MMSE
differs from least squares only by a deterministic per-user shrinkage.
The package never forms an estimate one trial at a time: the closed
forms in :mod:`.metrics` and the Monte-Carlo kernels in :mod:`.harness`
take the method name.  The literal per-trial estimators, which those
kernels are tested against, live in the tests' oracle
(``tests/oracle.py``).
"""

LS = "ls"
MMSE = "mmse"
METHODS = (LS, MMSE)


def check_method(method: str) -> str:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return method
