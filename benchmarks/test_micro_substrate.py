"""Microbenchmarks of the substrates: raw throughput of the cache bank,
the mesh timing model, the coherence ledger and a full system step.

These are conventional pytest-benchmark timings (ops/sec) rather than
figure reproductions; they guard against performance regressions in
the simulator itself.
"""

import random

from repro.architectures.registry import make_architecture
from repro.cache.bank import CacheBank
from repro.cache.block import BlockClass, L2Line
from repro.common.config import scaled_config
from repro.noc.message import MessageKind
from repro.noc.network import Network
from repro.sim.system import CmpSystem


def test_bank_lookup_throughput(benchmark):
    bank = CacheBank(0, num_sets=64, ways=16)
    rng = random.Random(7)
    blocks = [rng.randrange(1 << 30) for _ in range(4096)]
    for block in blocks[:1024]:
        bank.allocate(block % 64, L2Line(block=block,
                                             cls=BlockClass.SHARED,
                                             tokens=1))

    def lookups():
        for block in blocks:
            bank.lookup(block % 64, block)

    benchmark(lookups)


def test_network_arrival_throughput(benchmark):
    net = Network(scaled_config(8))
    rng = random.Random(7)
    pairs = [(rng.randrange(8), rng.randrange(8)) for _ in range(4096)]

    def messages():
        t = 0
        for src, dst in pairs:
            net.arrival(MessageKind.REQUEST, src, dst, t)
            t += 3

    benchmark(messages)


def test_full_system_reference_throughput(benchmark):
    config = scaled_config(8)
    system = CmpSystem(config, make_architecture("esp-nuca", config))
    rng = random.Random(7)
    refs = [(rng.randrange(8), rng.randrange(1 << 14), rng.random() < 0.25)
            for _ in range(4096)]

    state = {"t": 0}

    def accesses():
        t = state["t"]
        for core, block, write in refs:
            system.access(core, block, write, t)
            t += 2
        state["t"] = t

    benchmark(accesses)
