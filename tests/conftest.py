import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rankarg.catalog import chain, example1, figure2, two_cycle  # noqa: E402


@pytest.fixture
def ex1():
    return example1()


@pytest.fixture
def fig2():
    return figure2()


@pytest.fixture
def chain3():
    return chain(3)


@pytest.fixture
def cycle2():
    return two_cycle()


@pytest.fixture
def layered():
    """Builder of layered frameworks: ``layers`` layers of two arguments,
    each attacking both arguments of the next, so the walk counts from the
    first layer double with every layer."""
    from rankarg.framework import ArgFramework

    def build(layers):
        names = [(f"l{k}a", f"l{k}b") for k in range(layers)]
        return ArgFramework.make([a for pair in names for a in pair],
                                 [(a, b) for upper, lower in zip(names, names[1:])
                                  for a in upper for b in lower])
    return build
