"""Unit tests for the PPM direction predictor."""

import hashlib
import random

import pytest

from repro.branch import PPMPredictor


def train(ppm, pc, outcomes):
    for taken in outcomes:
        ppm.predict(pc)
        ppm.update(pc, taken)


def test_rejects_non_power_of_two_tables():
    with pytest.raises(ValueError):
        PPMPredictor(base_entries=1000)


def test_learns_always_taken():
    ppm = PPMPredictor()
    train(ppm, 0x1000, [True] * 10)
    assert ppm.predict(0x1000) is True


def test_learns_always_not_taken():
    ppm = PPMPredictor()
    train(ppm, 0x1000, [False] * 10)
    assert ppm.predict(0x1000) is False


def test_learns_loop_exit_pattern():
    """A loop branch taken N-1 times then not taken once: the tagged
    history tables should learn the exit after a few iterations."""
    ppm = PPMPredictor()
    pattern = ([True] * 7 + [False]) * 40
    for taken in pattern:
        ppm.predict(0x2000)
        ppm.update(0x2000, taken)
    # Replay one loop worth and check the exit is predicted.
    correct = 0
    for taken in [True] * 7 + [False]:
        if ppm.predict(0x2000) == taken:
            correct += 1
        ppm.update(0x2000, taken)
    assert correct == 8


def test_alternating_pattern_learned_by_history_tables():
    ppm = PPMPredictor()
    pattern = [True, False] * 100
    for taken in pattern:
        ppm.predict(0x3000)
        ppm.update(0x3000, taken)
    hits = 0
    for taken in [True, False] * 10:
        if ppm.predict(0x3000) == taken:
            hits += 1
        ppm.update(0x3000, taken)
    assert hits >= 18


def test_accuracy_metric():
    ppm = PPMPredictor()
    train(ppm, 0x1000, [True] * 100)
    assert 0.9 <= ppm.accuracy <= 1.0


def test_distinct_branches_do_not_interfere():
    ppm = PPMPredictor()
    train(ppm, 0x1000, [True] * 10)
    train(ppm, 0x2000, [False] * 10)
    assert ppm.predict(0x1000) is True
    assert ppm.predict(0x2000) is False


def test_random_pattern_accuracy_is_mediocre():
    rng = random.Random(7)
    ppm = PPMPredictor()
    outcomes = [rng.random() < 0.5 for _ in range(2000)]
    correct = 0
    for taken in outcomes:
        if ppm.predict(0x4000) == taken:
            correct += 1
        ppm.update(0x4000, taken)
    assert correct / len(outcomes) < 0.7  # cannot learn noise


#: Recorded from the reference (tuple-keyed, shortest-first) predictor.
PINNED_TAKEN_PREDICTIONS = 13636
PINNED_MISPREDICTS = 8615
PINNED_PREDICTIONS = (
    "59d47f9a03039d289196678e8b8e38045334854a0965100dcace1229189b1c7d")
PINNED_STATE = (
    "15e0db2ff4bf6784104635c88bd7685d57c68d25c6368c77284b1b71d6938c60")


def _pinned_stream(n=20_000, pcs=64, seed=1234):
    """Seeded ``(pc, taken)`` pairs over ``pcs`` branch PCs mixing loop,
    alternating and random behaviours, interleaved at random."""
    rng = random.Random(seed)
    counts = [0] * pcs
    stream = []
    for _ in range(n):
        slot = rng.randrange(pcs)
        pc = 0x1000 + 4 * slot * 37
        step = counts[slot]
        counts[slot] += 1
        style = slot % 3
        if style == 0:
            taken = step % (3 + slot % 7) != 0  # loop with a per-PC trip
        elif style == 1:
            taken = step % 2 == 0  # alternating
        else:
            taken = rng.random() < 0.6  # biased random
        stream.append((pc, taken))
    return stream


def _state_digest(ppm):
    state = repr((ppm.base, ppm.tag_table, ppm.counter_table,
                  ppm.useful_table, ppm.valid_table, ppm.history))
    return hashlib.sha256(state.encode()).hexdigest()


def test_state_and_predictions_are_pinned_bit_exactly():
    """Any rewrite of the predictor's data layout must reproduce these
    values, recorded from the reference implementation."""
    ppm = PPMPredictor()
    predictions = []
    for pc, taken in _pinned_stream():
        predictions.append(ppm.predict(pc))
        ppm.update(pc, taken)
    bits = "".join("1" if p else "0" for p in predictions)
    assert sum(predictions) == PINNED_TAKEN_PREDICTIONS
    assert hashlib.sha256(bits.encode()).hexdigest() == PINNED_PREDICTIONS
    assert ppm.mispredicts == PINNED_MISPREDICTS
    assert _state_digest(ppm) == PINNED_STATE
