"""The bounded-time contract for the library: every public function of
rrpfermat that takes an exponent r, and the two numutil functions whose p is
a prime, refuses a huge value with ValueError in well under a second,
without reaching the primality test (trial division to sqrt(r) would not
finish).  The functions are found by inspect.signature, so a new entry point
cannot miss the bound."""

import importlib
import inspect
import pkgutil
import time

import pytest

import rrpfermat

HUGE = 10**30 + 57

# Parameters named p that are not a prime exponent, with the reason.
NOT_A_PRIME = {
    "ffpoly.f2_degree": "p is a bit-packed polynomial over GF(2)",
    "ffpoly.f2_derivative": "p is a bit-packed polynomial over GF(2)",
    "ffpoly.ddf_degrees": "p is a bit-packed polynomial over GF(2)",
    "numutil.strip_factor": "p is any factor to divide out, not checked for primality",
}

# Values for the other required parameters of the functions found.
OTHER_ARGS = {"d": 2, "base_d": 2, "inverses": [], "a": 2}


def _modules():
    for info in pkgutil.iter_modules(rrpfermat.__path__):
        if not info.name.startswith("_"):
            yield importlib.import_module(f"rrpfermat.{info.name}")


def _entry_points():
    """(name, callable, parameter) for every public function, and every
    public class that is not a record, defined in rrpfermat with a parameter
    named r or p."""
    found = []
    for module in _modules():
        short = module.__name__.split(".", 1)[1]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj) and not issubclass(obj, tuple)):
                continue
            try:
                params = inspect.signature(obj).parameters
            except ValueError:  # a class with a built-in constructor (a dict subclass)
                continue
            for param in ("r", "p"):
                if param in params:
                    found.append((f"{short}.{name}", obj, param))
    return found


ENTRY_POINTS = _entry_points()
CHECKED = [entry for entry in ENTRY_POINTS if entry[0] not in NOT_A_PRIME]


def test_the_search_finds_the_known_entry_points():
    names = {name for name, _, _ in ENTRY_POINTS}
    assert {
        "classnumber.h_plus_parity",
        "classnumber.maillet_parity_rows",
        "classnumber.maillet_h_minus",
        "cycfield.RealCyclotomicField",
        "descent.signed_norm_of_pi_r",
        "numutil.least_primitive_root",
        "numutil.legendre_symbol",
        "numutil.order_of_two_mod_pm1",
    } <= names
    assert set(NOT_A_PRIME) <= names
    assert len(names) >= 20


@pytest.mark.parametrize("name, fn, param", CHECKED, ids=[entry[0] for entry in CHECKED])
def test_a_huge_prime_parameter_is_refused_before_the_primality_test(monkeypatch, name, fn, param):
    def no_primality_test(n):
        raise AssertionError(f"{name}: is_prime({n}) ran before the MAX_R bound")

    for module in _modules():
        if hasattr(module, "is_prime"):
            monkeypatch.setattr(module, "is_prime", no_primality_test)
    kwargs = {}
    for pname, spec in inspect.signature(fn).parameters.items():
        if pname == param:
            kwargs[pname] = HUGE
        elif spec.default is inspect.Parameter.empty:
            assert pname in OTHER_ARGS, f"{name}: add a value for {pname} to OTHER_ARGS"
            kwargs[pname] = OTHER_ARGS[pname]
    t0 = time.monotonic()
    with pytest.raises(ValueError, match=f"{HUGE} exceeds MAX_R"):
        fn(**kwargs)
    assert time.monotonic() - t0 < 1.0
