"""The failure classes of hermlat, one per action a caller takes.

- ``HermlatError``: a bad argument, or an answer of "no solution" (no
  trace or norm solution, a zero valuation, a non-integral matrix); the CLI
  exits 2 with ``error:``.  The other classes derive from it.
- ``SpecFileError``: a spec file that does not parse, with its line; the
  CLI exits 2 with ``input error:``.
- ``PrecisionLoss``: a result would carry fewer guaranteed digits than the
  guard allows; raised by ``localfield`` only.  ``factor`` and
  ``roundtrip`` double the precision and retry.
- ``UnsupportedCase``: a construction or search found no candidate, or a
  proof-branch precondition failed at run time; more precision does not
  help.  The CLI exits 3.
- ``VerificationFailed``: the certificate rejected a factorization; the CLI
  exits 1 and the benchmark counts a wrong answer.
"""


class HermlatError(Exception):
    pass


class SpecFileError(HermlatError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")


class PrecisionLoss(HermlatError):
    pass


class UnsupportedCase(HermlatError):
    pass


class VerificationFailed(HermlatError):
    pass
