"""Golden digests: exact results of every fuzz-grid architecture.

The two engines share the functional miss path, so the equivalence
suite cannot see a change to that path which alters both engines'
numbers alike (a different way-order tie-break between two classes of
one block in a set, say). This test pins the sha256 of the canonical
``SimResult.to_dict()`` of every ``FUZZ_ARCHITECTURES`` entry on two
workloads at one seed and small reference counts, under both engines.

A digest may change only with a deliberate behaviour change, which
also bumps ``CACHE_VERSION``; re-record with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

import pytest

from repro.check.oracles import FUZZ_ARCHITECTURES
from repro.common.config import scaled_config
from repro.harness.executor import RunPoint, simulate_point
from repro.harness.runner import RunSettings
from repro.sim.engines import ENGINES

WORKLOADS = ("apache", "CG")
SEED = 42
REFS = 800
WARMUP = 200

GOLDEN: Dict[str, str] = {
    "shared/apache":
        "50a3057efbdb1ad17d343b692e03f45424663a98fe061fe7fae2d89249588ab8",
    "shared/CG":
        "2d5884b9594fce16c710f703cb22d317ee2690416b96852269224c2b251390bb",
    "private/apache":
        "272c8449708440245485130b08483225986e4a697a32d0cf50db75a891e5d8b4",
    "private/CG":
        "51b4835dcc60c6177905760c146d22944bbd5358094b0fcbf30dc9fd83424cdc",
    "d-nuca/apache":
        "717534bc2ad99504b06d500cc6da9175acf0025c6e32751ba9ee007c08d01292",
    "d-nuca/CG":
        "8443fc4ee65987140b4be65aaad1ae97eeeb99621f027669dae1e152b5582a50",
    "asr/apache":
        "ade817db5ab86735e65384c66118f1eb7009c34128adadf61825775791785e12",
    "asr/CG":
        "3502c1db60c2eadfb03fb755290ba1129c2f7c2122abb14ec50098a113249d17",
    "cc00/apache":
        "cbe04425f8a8c6a6f5fa56791129a2070dc496e1cc94362c381035700835e0c0",
    "cc00/CG":
        "a1e1121f624f24695f00ed4fecbd2ddc253fac0a4e2ab23ffcb120de13f7542f",
    "cc100/apache":
        "2ba78d96296364809063aec69b2581f3c06e552375007b771038aea2eac5abcf",
    "cc100/CG":
        "327a298c4d898870113355e705df5360463bdadfc48857fee72ce2cc97541f25",
    "sp-nuca/apache":
        "ab090bf014edc6be86ec6629f466918fa51b9854f65d66a9c6896bd2fd253dfb",
    "sp-nuca/CG":
        "930f2a149634ea6adcf97d58868921e3f1373bb6e1ad0ac332e7cc354480270a",
    "sp-nuca-static/apache":
        "dcbc46959e3380b8858cb1631de77bbebc081e2f204608f29d2c7818c7e2abf9",
    "sp-nuca-static/CG":
        "ddbca661580c5380554b6da94ede5958dbdc1b4486066ca09aaf884c42e69e6a",
    "sp-nuca-shadow/apache":
        "8e1516caabc7496cbaa6cb9daebb8f68ed4e7b9189ebe94cbf3d7d8eeb334744",
    "sp-nuca-shadow/CG":
        "e6399eabfaa690d3eb3ecd29cc8740205ab94e5220b66a55c68965574a4af09d",
    "esp-nuca/apache":
        "1eca04d641c58b9149a6ef88cc14b145541ed0c8a25be4c9d2d0f11dd9b053a1",
    "esp-nuca/CG":
        "de15fc8480e4a5d911ac91f36038e518667fa303f45e3b4ea838f99aa367884c",
    "esp-nuca-flat/apache":
        "9a90b55c7f5de31559b6b609ea81b8141072f33debfbe6c889cdc4206279e059",
    "esp-nuca-flat/CG":
        "172db074324443443fb5293c19ce498e8742e79e9ca83f17802060ffc639a951",
    "esp-nuca-qos/apache":
        "100c1fba4ff65630f9c584fc0549f80ea768360c93ac6184783364ed9b54d77a",
    "esp-nuca-qos/CG":
        "96ec824cfb71f84e5ab08f2c49c123aaa360fe35f3294ecd1a5a682e35e8f33a",
    "r-nuca/apache":
        "21c51a8dce62e63461cd6246949d7b8dd9fd7a16e2571c4d5c304cde42c355ab",
    "r-nuca/CG":
        "a770c1207794bf43b71398796a9a1b1f46bd02182adf7348d2e2ea50c3d1502b",
    "victim-replication/apache":
        "b533f7daa6df151cf4a551b461f560624f9dc309ff2eae916ef763a4b4f005e7",
    "victim-replication/CG":
        "daabdfca694855227d513be7384a60d0233f4d7e1741a4bd00b0239a7655f39b",
}


def digest(arch: str, workload: str, engine: str) -> str:
    settings = RunSettings(capacity_factor=8, refs_per_core=REFS,
                           warmup_refs_per_core=WARMUP, num_seeds=1,
                           engine=engine)
    point = RunPoint(name=arch, workload=workload, seed=SEED,
                     config=scaled_config(8), settings=settings, arch=arch)
    payload = json.dumps(simulate_point(point).to_dict(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("arch", FUZZ_ARCHITECTURES)
def test_golden_digest(arch: str, workload: str, monkeypatch) -> None:
    # A checked run mounts a ``check`` stats scope; the digests are of
    # unchecked runs.
    monkeypatch.delenv("REPRO_CHECKS", raising=False)
    want = GOLDEN[f"{arch}/{workload}"]
    for engine in ENGINES:
        assert digest(arch, workload, engine) == want, (
            f"{arch}/{workload} on the {engine} engine no longer matches "
            f"its golden digest")


if __name__ == "__main__":
    for arch in FUZZ_ARCHITECTURES:
        for workload in WORKLOADS:
            print(f'    "{arch}/{workload}":\n'
                  f'        "{digest(arch, workload, "reference")}",')
