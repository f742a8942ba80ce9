import pytest

# claims.py holds the headline-claim checks that test modules share; its
# asserts are rewritten like theirs, so they still run under python -O.
pytest.register_assert_rewrite("claims")

from fareysym.kulkarni import gamma0_symbol
from fareysym.siegel import normalize


_SYMBOLS = {}
_NORMALIZED = {}


@pytest.fixture
def symbol_for():
    """Session-cached unimodular symbols (symbols are immutable)."""
    def get(N):
        if N not in _SYMBOLS:
            _SYMBOLS[N] = gamma0_symbol(N)
        return _SYMBOLS[N]
    return get


@pytest.fixture
def normalized_for():
    def get(N):
        if N not in _NORMALIZED:
            if N not in _SYMBOLS:
                _SYMBOLS[N] = gamma0_symbol(N)
            _NORMALIZED[N] = normalize(_SYMBOLS[N])
        return _NORMALIZED[N]
    return get
