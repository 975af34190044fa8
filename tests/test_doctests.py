import doctest

import pytest

from soficshift import diagonal, isocheck, krieger, ktheory, shiftcore


@pytest.mark.parametrize("module",
                         [shiftcore, krieger, ktheory, diagonal, isocheck],
                         ids=lambda m: m.__name__)
def test_doctests_pass(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
