"""The bounded-time contract for the library: every public function of
rrpfermat that takes an exponent r (or a prime p) refuses a huge value with
ValueError in well under a second, without reaching the primality test
(trial division to sqrt(r) would not finish).  The functions are found by
inspect.signature, so a new entry point cannot miss the bound.  Below the
verdict engine every function takes a RealCyclotomicField, whose
constructor applies the bound, so the exact set of functions with an r is
small and named here.

A quadratic base d has the same contract: the entry points that check d
refuse a huge d before the squarefree test (trial division to d^(1/3)),
and every function below them takes a checked d, so it returns or raises
in well under a second without a squarefree test."""

import importlib
import inspect
import pkgutil
import time

import pytest

import rrpfermat
from rrpfermat.cycfield import build_field

HUGE = 10**30 + 57

# Parameters named p that are not a prime exponent, with the reason.
NOT_A_PRIME = {
    "ffpoly.f2_degree": "p is a bit-packed polynomial over GF(2)",
    "ffpoly.f2_derivative": "p is a bit-packed polynomial over GF(2)",
    "ffpoly.ddf_degrees": "p is a bit-packed polynomial over GF(2)",
    "numutil.strip_factor": "p is any factor to divide out, not checked for primality",
}

# Values for the other required parameters of the functions found.
OTHER_ARGS = {"d": 2, "base_d": 2}


def _modules():
    for info in pkgutil.iter_modules(rrpfermat.__path__):
        if not info.name.startswith("_"):
            yield importlib.import_module(f"rrpfermat.{info.name}")


def _entry_points(names=("r", "p")):
    """(name, callable, parameter) for every public function, and every
    public class that is not a record, defined in rrpfermat with a parameter
    of one of the given names."""
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
            for param in names:
                if param in params:
                    found.append((f"{short}.{name}", obj, param))
    return found


ENTRY_POINTS = _entry_points()
CHECKED = [entry for entry in ENTRY_POINTS if entry[0] not in NOT_A_PRIME]


def test_the_search_finds_the_known_entry_points():
    names = {name for name, _, _ in ENTRY_POINTS}
    assert names == {
        "criteria.check_corollary_Q",
        "criteria.check_corollary_quad",
        "criteria.check_four_hypotheses",
        "cycfield.RealCyclotomicField",
        "cycfield.build_field",
        "numutil.check_prime_r",
    } | set(NOT_A_PRIME)


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


D_ENTRY_POINTS = _entry_points(("d", "base_d"))

# The entry points that run numutil.check_quadratic_d; every other function
# with a d takes a checked one.
CHECKS_D = {
    "criteria.check_corollary_quad",
    "criteria.check_four_hypotheses",
    "numutil.check_quadratic_d",
    "splitting.split_2_in_quadratic",
}

# Values for the other required parameters of the functions with a d.
D_OTHER_ARGS = {"r": 13, "field": build_field(13)}


def test_the_search_finds_the_known_functions_of_d():
    names = {name for name, _, _ in D_ENTRY_POINTS}
    assert names == CHECKS_D | {
        "descent.norm_necessary_condition",
        "splitting.check_r_inert_in_quadratic",
        "splitting.split_2_in_Kplus",
    }


@pytest.mark.parametrize("name, fn, param", D_ENTRY_POINTS, ids=[entry[0] for entry in D_ENTRY_POINTS])
def test_a_huge_d_is_refused_or_taken_without_the_squarefree_test(monkeypatch, name, fn, param):
    def no_squarefree_test(n):
        raise AssertionError(f"{name}: is_squarefree({n}) ran")

    for module in _modules():
        if hasattr(module, "is_squarefree"):
            monkeypatch.setattr(module, "is_squarefree", no_squarefree_test)
    kwargs = {}
    for pname, spec in inspect.signature(fn).parameters.items():
        if pname == param:
            kwargs[pname] = HUGE
        elif spec.default is inspect.Parameter.empty:
            assert pname in D_OTHER_ARGS, f"{name}: add a value for {pname} to D_OTHER_ARGS"
            kwargs[pname] = D_OTHER_ARGS[pname]
    t0 = time.monotonic()
    if name in CHECKS_D:
        with pytest.raises(ValueError, match=f"{HUGE} exceeds MAX_D"):
            fn(**kwargs)
    else:
        try:
            fn(**kwargs)
        except ValueError:
            pass
    assert time.monotonic() - t0 < 1.0
