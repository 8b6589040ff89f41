"""Generic set-associative cache substrate shared by every architecture."""

from repro.cache.bank import CacheBank, SetRole
from repro.cache.block import BlockClass, FIRST_CLASS, HELPING, L2Line
from repro.cache.l1 import L1Cache
from repro.cache.replacement import (
    FlatLru,
    ProtectedLru,
    ReplacementPolicy,
    StaticPartition,
)
from repro.cache.shadow import ShadowTagPartition

__all__ = [
    "CacheBank",
    "SetRole",
    "BlockClass",
    "L2Line",
    "FIRST_CLASS",
    "HELPING",
    "L1Cache",
    "FlatLru",
    "ProtectedLru",
    "ReplacementPolicy",
    "StaticPartition",
    "ShadowTagPartition",
]
