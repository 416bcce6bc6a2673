"""Random simulation runs, free of pytest so that tools can import them.

`random_run(seed)` draws a group size, faults, a network and a workload
from `random.Random(seed)`; the same seed gives the same run on every
supported Python.
"""

import random

from revledger.sim import (
    CorruptDigest,
    Crash,
    DelayAll,
    EquivocatePrePrepare,
    Partition,
    Silent,
    SimConfig,
    Submission,
)


def random_run(seed: int):
    rng = random.Random(seed)
    n, f = rng.choice([(1, 0), (4, 1), (5, 1), (7, 2)])
    behaviors = [
        lambda: Crash(at_tick=rng.randrange(200)),
        Silent,
        lambda: DelayAll(extra=rng.randrange(1, 6)),
        EquivocatePrePrepare,
        CorruptDigest,
    ]
    faulty = rng.sample(range(n), rng.randrange(min(n, f + 2)))
    partitions = ()
    if n > 1 and rng.random() < 0.3:
        start = rng.randrange(100)
        group = frozenset(rng.sample(range(n), rng.randrange(1, n)))
        partitions = (Partition(start, start + rng.randrange(5, 120), group),)
    delay_min = rng.randrange(1, 3)
    config = SimConfig(
        n=n, f=f, seed=seed, delay_min=delay_min, delay_max=delay_min + rng.randrange(4),
        drop_prob=rng.choice([0.0, 0.05, 0.2, 0.5, 1.0]), timeout_ticks=rng.randrange(1, 40),
        max_batch=rng.randrange(1, 5), max_ticks=rng.randrange(50, 800),
        partitions=partitions, byzantine=tuple((i, rng.choice(behaviors)()) for i in faulty),
    )
    ticks = sorted(rng.randrange(300) for _ in range(rng.randrange(15)))
    workload = [
        Submission(tick=t, node=rng.randrange(n), work_id=f"w{rng.randrange(4)}",
                   author_id="ada", payload=bytes([i]))
        for i, t in enumerate(ticks)
    ]
    return config, workload
