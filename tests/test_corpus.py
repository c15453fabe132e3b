"""The pinned report corpus: every recipe in ``report_corpus.json`` must
replay to the outcome stored with it.

A recipe is a width, the constants (C1, C3, C), a stream seed and word
count for ``generate``, edits to the stream ([index, word] pairs that
replace words), and the ``recover`` horizon, mode and worker count; it
carries no survivor cap, so an overflow entry runs at the constant cap.
An outcome is every field of ``report_core`` or the exception's type
and message.  The file was written once from the code that the corpus first
tested, and has no regenerate switch: a change that alters an outcome
either is a fault or names the entry it edits, and why.  The entries up to
w=12 run in tier 1, the wider ones with ``-m slow``.
"""

import json
from pathlib import Path

import pytest

from tf1crack import (
    AttackConfig,
    AttackError,
    Keystream,
    Tf1Params,
    WordSpec,
    generate,
    recover,
    state_from_seed,
    tf1_instance,
)

CORPUS = Path(__file__).with_name("report_corpus.json")


def corpus_stream(recipe) -> Keystream:
    """The recipe's keystream: ``count`` words from its seed, then its edits."""
    spec = WordSpec(recipe["w"])
    params = Tf1Params(*recipe["constants"], spec)
    words = list(generate(state_from_seed(recipe["seed"], spec), params, recipe["count"]).words)
    for index, word in recipe["edits"]:
        words[index] = word
    return Keystream(spec, tuple(words))


def corpus_outcome(recipe) -> dict:
    """``recover`` on the recipe, as the JSON object the corpus stores."""
    ks = corpus_stream(recipe)
    inst = tf1_instance(Tf1Params(*recipe["constants"], ks.spec))
    cfg = AttackConfig(
        filter_horizon=recipe["horizon"],
        enumeration_mode=recipe["mode"],
        workers=recipe["workers"],
    )
    try:
        report = recover(ks, inst, cfg=cfg)
    except AttackError as err:
        return {"error": type(err).__name__, "message": str(err)}
    return {
        "zero_index": report.zero_index,
        "recovered": [list(s.words()) for s in report.recovered],
        "counters": vars(report.counters),
        "predicted_ops": report.predicted_ops,
        "horizon": report.horizon,
        "horizon_clamped": report.horizon_clamped,
        "verified_words": report.verified_words,
    }


def _entries(wide: bool):
    return [e for e in json.loads(CORPUS.read_text()) if (e["recipe"]["w"] > 12) == wide]


def _replay(entries):
    assert entries
    failed = [(e["name"], e["outcome"], got) for e in entries
              if (got := corpus_outcome(e["recipe"])) != e["outcome"]]
    assert not failed, failed


def test_corpus_replays_up_to_w12():
    _replay(_entries(wide=False))


@pytest.mark.slow
def test_corpus_replays_above_w12():
    # opt-in (pytest -m slow): w = 14..18, among them the documented w=16
    # stream and the w=16 C = 1 stream
    _replay(_entries(wide=True))

