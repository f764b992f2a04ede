"""Newman-like alternating digit sums over residue classes, the cyclotomic
coset spectrum of 2 mod m, the integer recurrences those sums satisfy, and
the exact remainder exponent of Gelfond's digit theorem in the binary case.

Every quantity is computable by at least two independent routes (direct
enumeration, digit DP, character sums mod split primes, root products
expanded mod split primes, Berlekamp-Massey over exact sums) and the test
suite insists the routes agree exactly.
"""

from .cosets import (
    NEITHER,
    PRIMITIVE,
    SEMIPRIMITIVE,
    CosetDecomposition,
    PrimeClassification,
    classify_prime,
    cyclotomic_cosets,
    is_prime,
    multiplicative_order,
    scan_primes,
)
from .empirical import (
    BlockSup,
    DyadicProfile,
    EmpiricalFit,
    EnvelopeReport,
    RemainderCheck,
    default_window,
    dyadic_profile,
    envelope_check,
    fit_exponent,
    gelfond_remainder_check,
)
from .exponent import (
    LAMBDA,
    ExponentReport,
    alpha,
    alpha_closed_prime,
    alpha_for_rep,
)
from .recurrence import (
    NonIntegerCoefficientError,
    RecurrenceDefectError,
    RecurrenceSpec,
    SingularSystemError,
    VerificationReport,
    coefficients_from_sums,
    coefficients_spectral,
    simple_prime_c1,
    verify_recurrence,
)
from .spectral import (
    SpectralRoots,
    characteristic_roots,
    newman_sum_explicit,
)
from .sums import (
    ENUMERATION_CAP,
    EnumerationCapError,
    ParityCount,
    digit_sum,
    dyadic_sums,
    newman_sum_dp,
    newman_sum_enumerate,
    parity_counts,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSup",
    "CosetDecomposition",
    "DyadicProfile",
    "EmpiricalFit",
    "ENUMERATION_CAP",
    "EnumerationCapError",
    "EnvelopeReport",
    "ExponentReport",
    "LAMBDA",
    "NEITHER",
    "NonIntegerCoefficientError",
    "ParityCount",
    "PrimeClassification",
    "PRIMITIVE",
    "RecurrenceDefectError",
    "RecurrenceSpec",
    "RemainderCheck",
    "SEMIPRIMITIVE",
    "SingularSystemError",
    "SpectralRoots",
    "VerificationReport",
    "alpha",
    "alpha_closed_prime",
    "alpha_for_rep",
    "characteristic_roots",
    "classify_prime",
    "coefficients_from_sums",
    "coefficients_spectral",
    "cyclotomic_cosets",
    "default_window",
    "digit_sum",
    "dyadic_profile",
    "dyadic_sums",
    "envelope_check",
    "fit_exponent",
    "gelfond_remainder_check",
    "is_prime",
    "multiplicative_order",
    "newman_sum_dp",
    "newman_sum_enumerate",
    "newman_sum_explicit",
    "parity_counts",
    "scan_primes",
    "simple_prime_c1",
    "verify_recurrence",
]
