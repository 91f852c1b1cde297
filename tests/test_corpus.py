"""The 261-config corpus of ``_corpus.py``, re-solved and compared with its table."""

from _corpus import HEADER, TABLE, rows


def test_every_config_reproduces_its_committed_row():
    """Each config's outcome, iterations, final damping, rho_min/rho0 and
    honesty equal its row of corpus.csv.  The assert lists the movers, old
    row then new; ``python tests/_corpus.py`` rewrites the table."""
    committed = TABLE.read_text().splitlines()
    assert committed[0] == HEADER
    movers = [(old, new) for old, new in zip(committed[1:], rows()) if old != new]
    assert len(committed) == 262 and not movers, movers
