"""Error types shared across the package."""


class ValidationError(ValueError):
    """Input data violates a declared invariant (bad shape, bad reference,
    failed equivariance, inconsistent declarations)."""


class UnsupportedModelError(ValueError):
    """The data is internally consistent but outside the supported model
    class (for example a noncommutative endomorphism algebra)."""


class UnreadableInputError(ValueError):
    """The input file is not UTF-8 text, or is JSON nested too deeply for
    the decoder to take apart."""
