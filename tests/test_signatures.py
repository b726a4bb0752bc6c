"""The algebra and the exchange matrix of a triangulation are functions
of it (`build_QT`, `signed_adjacency`), so the lamination, Laurent and
file functions take the triangulation alone, never either beside it."""

import inspect

import pytest

from gentlelam import fileio, laurent, surface

# `bangle` keeps its exchange matrix for callers that hold it already;
# the B of `band_to_curve` is a band word, not an exchange matrix
TAKE_B = {"bangle", "band_to_curve"}


def public_functions(module):
    return {name: inspect.signature(fn).parameters
            for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")}


@pytest.mark.parametrize("module", (surface, laurent, fileio),
                         ids=lambda m: m.__name__)
def test_no_function_takes_what_the_triangulation_gives(module):
    functions = public_functions(module)
    assert functions
    assert not [name for name, params in functions.items()
                if "algebra" in params]
    # B beside T: an exchange matrix the triangulation already gives
    assert not [name for name, params in functions.items()
                if "T" in params and "B" in params and name not in TAKE_B]
