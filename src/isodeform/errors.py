"""The error taxonomy: three kinds, each with its CLI exit code.

* VerificationError (2): a claim about F fails where no check records it,
  such as kernels of different dimension or a path integral that does not
  converge.  A failed residual check is a FAIL in the report, not an error.
* HypothesisError (3): a hypothesis of the theorem fails (rank A >= 3, an
  invertible Q, the gradient constraint), or the nondegeneracy it rests on.
* SceneError (4): unusable input: a scene, flag or expression that does not
  parse or leaves its domain, or a file that cannot be read or written.

Misuse of the API, such as mixing jet spaces, raises a plain ValueError.
"""


class VerificationError(RuntimeError):
    pass


class HypothesisError(ValueError):
    pass


class SceneError(ValueError):
    pass
