import pytest

import qgdecay.eigenfunctions
import qgdecay.transfer


@pytest.fixture
def eig2_calls(monkeypatch):
    """The matrices ``eig2`` is called on, wherever the package calls it."""
    calls = []
    eig2 = qgdecay.transfer.eig2

    def counting(t):
        calls.append(t)
        return eig2(t)

    for module in (qgdecay.transfer, qgdecay.eigenfunctions):
        monkeypatch.setattr(module, "eig2", counting)
    return calls
