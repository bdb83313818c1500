"""The run-level estimators keep each unit's fastest repetition."""

from proc import fastest_block, fastest_units


def test_a_slow_stretch_in_one_repetition_does_not_reach_the_total():
    # Three repetitions of three units; each repetition has one unit
    # slowed 1.8x by the host, a different one each time.
    base = [0.4, 0.5, 0.2]
    reps = [
        [t * (1.8 if k == slow else 1.0) for k, t in enumerate(base)]
        for slow in range(3)
    ]
    assert abs(fastest_units(reps) - sum(base)) < 1e-12
    # A generator of repetitions works as a list does.
    assert fastest_units(iter(reps)) == fastest_units(reps)


def test_a_unit_slow_in_every_repetition_stays_slow():
    reps = [[0.4, 0.9], [0.5, 0.9]]
    assert abs(fastest_units(reps) - 1.3) < 1e-12


def test_fastest_block_skips_empty_blocks():
    blocks = [[3.0, 1.0, 2.0], [], [5.0, 4.0, 6.0]]
    assert fastest_block(blocks, 50) == 2.0


def test_a_stall_spoils_only_its_own_block():
    quiet = [1.0] * 69 + [1.2]
    stalled = [1.0] * 67 + [6.0, 5.0, 4.0]
    p99 = fastest_block([stalled, quiet, stalled], 99)
    assert 1.0 < p99 < 1.2
