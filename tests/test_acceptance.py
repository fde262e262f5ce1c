"""The acceptance gate: every named reproduction criterion must pass.

Criteria run in index order so expensive solver verdicts computed by an
earlier criterion are reused from the shared cache by later ones.
"""

import pytest

from hatlab import verify
from hatlab.solver import search_game
from hatlab.verify import CHECKS, run_check


@pytest.mark.parametrize(
    "item", CHECKS, ids=[f"{c.index:02d}-{c.name}" for c in CHECKS]
)
def test_acceptance_criterion(item):
    result = run_check(item)
    assert result.ok, f"{item.name}: {result.details}"


def test_verdict_cache_is_keyed_by_formula(monkeypatch):
    # criterion 01 searches K3 at h = 4 over {v0, v1, v2} and criterion
    # 11 over {a, b, c}: one formula, so one search
    searched = []

    def counting(game):
        searched.append(game)
        return search_game(game)

    monkeypatch.setattr(verify, "_VERDICT_CACHE", {})
    monkeypatch.setattr(verify, "search_game", counting)
    for item in (CHECKS[0], CHECKS[10]):
        result = run_check(item)
        assert result.ok, f"{item.name}: {result.details}"
    k3 = [
        game for game in searched
        if len(game.vertices) == 3 and len(game.graph.edges) == 3
        and set(game.h.values()) == {4} and set(game.g.values()) == {1}
    ]
    assert len(k3) == 1
