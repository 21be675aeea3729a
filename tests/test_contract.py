"""The output contract of ``contract.py``, one test per case."""

import pytest

from contract import CASES, run_case


@pytest.mark.parametrize("name", list(CASES))
def test_output_keeps_its_pin(name):
    assert run_case(CASES[name]) == []
