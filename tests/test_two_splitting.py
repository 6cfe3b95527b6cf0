"""The splitting of 2 in Q(theta_r) is decided on one route,
RealCyclotomicField.two_shape(); every consumer must agree with the
independent order-of-2 oracle for each prime 5 <= r <= 199."""

import pytest

from rrpfermat.cycfield import build_field
from rrpfermat.errors import NotInertError
from rrpfermat.galoisring import is_square_pi_r
from rrpfermat.numutil import primes_upto
from rrpfermat.splitting import split_2_in_Qplus

from test_ffpoly import order_of_two_mod_pm1

PRIMES = [r for r in primes_upto(199) if r >= 5]


@pytest.mark.parametrize("r", PRIMES)
def test_two_shape_matches_order_oracle(r):
    field = build_field(r)
    f = order_of_two_mod_pm1(r)
    assert field.two_shape() == ((f, field.degree // f),)
    assert field.two_shape() is field.two_shape()  # memoized
    assert split_2_in_Qplus(field).primes == ((1, f),) * (field.degree // f)


@pytest.mark.parametrize("r", PRIMES)
def test_inert_consumers_raise_exactly_when_two_splits(r):
    field = build_field(r)
    inert = order_of_two_mod_pm1(r) == field.degree
    consumers = [
        lambda: is_square_pi_r(field),
        field.require_two_inert,
    ]
    for call in consumers:
        if inert:
            call()
        else:
            with pytest.raises(NotInertError):
                call()
