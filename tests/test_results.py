"""The public result types: immutable named tuples with pinned field order."""

import pytest

import gelfond
from gelfond import (
    LAMBDA,
    BlockSup,
    CosetDecomposition,
    DyadicProfile,
    EmpiricalFit,
    EnvelopeReport,
    ExponentReport,
    ParityCount,
    PrimeClassification,
    RecurrenceSpec,
    RemainderCheck,
    SpectralRoots,
    VerificationReport,
    alpha,
    cyclotomic_cosets,
)

FIELDS = {
    BlockSup: ("nu", "sup", "argmax_x"),
    CosetDecomposition: ("m", "cosets", "representatives", "sizes", "r", "h", "ord2"),
    DyadicProfile: ("m", "a", "max_exp", "blocks", "boundary_sums"),
    EmpiricalFit: ("exponent_estimate", "intercept", "residual", "window"),
    EnvelopeReport: ("m", "a", "alpha", "calib_end", "upper_c", "upper_violations",
                     "omega_attained", "omega_margin"),
    ExponentReport: ("m", "per_rep", "alpha", "argmax_rep", "closed_form", "lam",
                     "log2_v", "bounded"),
    ParityCount: ("t_even", "t_odd"),
    PrimeClassification: ("p", "classification", "ord2", "minus_one_solvable"),
    RecurrenceSpec: ("m", "r", "h", "coefficients"),
    RemainderCheck: ("m", "a", "max_exp", "ratios", "max_ratio", "argmax_nu",
                     "monotone_top"),
    SpectralRoots: ("m", "h", "representatives", "roots", "effective_roots",
                    "magnitudes", "v", "eta"),
    VerificationReport: ("m", "a", "depth", "multipliers", "checks", "max_defect"),
}


def test_every_public_result_type_is_pinned():
    public = {obj for obj in (getattr(gelfond, name) for name in gelfond.__all__)
              if isinstance(obj, type) and issubclass(obj, tuple)}
    assert public == set(FIELDS)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_fields_and_immutability(cls):
    assert cls._fields == FIELDS[cls]
    value = cls._make(range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, -1)


def test_exponent_report_bounded_default():
    report = ExponentReport(m=3, per_rep=(), alpha=0.0, argmax_rep=None,
                            closed_form=None, lam=LAMBDA, log2_v=None)
    assert report.bounded is False
    assert alpha(17).bounded is False
    assert alpha(8).bounded is True


def test_results_compare_equal_to_plain_tuples():
    dec = cyclotomic_cosets(15)
    assert type(dec) is CosetDecomposition
    assert dec == (15, dec.cosets, (1, 3, 5, 7), (4, 4, 2, 4), 4, 4, 4)
