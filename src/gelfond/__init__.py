"""Newman-like alternating digit sums over residue classes, the cyclotomic
coset spectrum of 2 mod m, the integer recurrences those sums satisfy, and
the exact remainder exponent of Gelfond's digit theorem in the binary case.

Every quantity is computable by at least two independent routes (direct
enumeration, digit DP, character sums mod split primes, root products
expanded mod split primes, Berlekamp-Massey over exact sums) and the test
suite insists the routes agree exactly.

`import gelfond` runs no layer code.  Each layer module is registered in
`sys.modules` and bound here as a lazy module, which runs on the first access
to one of its attributes.  Each public name below is bound from its layer on
first access.
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: Every layer and the public names the package serves from it.
_PUBLIC = {
    "cosets": (
        "NEITHER",
        "PRIMITIVE",
        "SEMIPRIMITIVE",
        "CosetDecomposition",
        "PrimeClassification",
        "classify_prime",
        "cyclotomic_cosets",
        "is_prime",
        "multiplicative_order",
        "scan_primes",
    ),
    "empirical": (
        "BlockSup",
        "DyadicProfile",
        "EmpiricalFit",
        "EnvelopeReport",
        "RemainderCheck",
        "default_window",
        "dyadic_profile",
        "envelope_check",
        "fit_exponent",
        "gelfond_remainder_check",
    ),
    "exponent": (
        "LAMBDA",
        "ExponentReport",
        "alpha",
        "alpha_closed_prime",
        "alpha_for_rep",
    ),
    "recurrence": (
        "NonIntegerCoefficientError",
        "RecurrenceDefectError",
        "RecurrenceSpec",
        "SingularSystemError",
        "VerificationReport",
        "coefficients_from_sums",
        "coefficients_spectral",
        "simple_prime_c1",
        "verify_recurrence",
    ),
    "spectral": (
        "SpectralRoots",
        "characteristic_roots",
        "newman_sum_explicit",
    ),
    "sums": (
        "ENUMERATION_CAP",
        "EnumerationCapError",
        "ParityCount",
        "digit_sum",
        "dyadic_sums",
        "newman_sum_dp",
        "newman_sum_enumerate",
        "parity_counts",
    ),
}

_LAYER_OF = {name: layer for layer, names in _PUBLIC.items() for name in names}

__all__ = sorted(_LAYER_OF)


def _register_lazily(layer: str):
    """gelfond.<layer>, put in sys.modules unrun: it runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _layer in ("modular", *_PUBLIC):
    globals()[_layer] = _register_lazily(_layer)
del _layer


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[layer], name)  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
