"""Byte-identity guard for the reference engines across commits.

The reference engines (base and over-commit) are the model every other
kernel is checked against, and the only engines that run the
scheduler-, scenario- and over-commit-driven studies.  Determinism
guards elsewhere compare two runs of the same commit; this guard pins
the exact serialized result of small reference cells, so a hot-path
rewrite that is meant to be behaviour-preserving can prove it across
commits.

Cells: one per Table IV mix, plus an over-committed cell (two threads
per core, the over-commit engine), a diurnal-web scenario cell under
the adaptive scheduler, a heterogeneous-core cell, and one cell each
for the non-promoting L2 replacement policies (FIFO and random), a
static way-quota cell (the ``static-equal`` QoS controller), a live
UCP cache-QoS cell, a cell with 64-entry directory caches and an
asymmetric-L2 cell.  The quota cells place
threads round robin, so every shared domain holds several VMs and gets
quotas; mix3 fills L2 sets within 600 refs, so its quota cell also
runs the quota victim selector.

Four more cells pin the consumers of the epoch sensing window: the
``target-slowdown`` and ``missrate-prop`` QoS controllers and the
``contention`` and ``hetero`` schedulers.  Each of them must still act
(adjust a quota or migrate a thread), so its pin cannot go vacuous.

A deliberate model change updates the digests below; regenerate them
with ``PYTHONPATH=src python tests/sim/test_reference_digests.py``.
"""

import hashlib
import json

import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.store import result_to_dict

_CELLS = {
    "mix1": "264a03ff3c6cd34a46fdb24b49e8a2f9d5198e8cf2f4d851660b1a6c2d1e1d35",
    "mix2": "2d996a158a0ec5fabcaeeaf2395d3bebc1b66899a7def749beaed284e7546479",
    "mix3": "90487ac14a4a62419c5e51cea0b56c1c141f43d15ae8b4f798f698df28bd269e",
    "mix4": "fe7be85d7e8e3f96cb4ee70a9fd4237ce580c611a78dc73cb6a21d536ad8536d",
    "mix5": "313a9ff1be50994eec28f0df4d77b7b15b0b413d4ac070e4fad4418727d9f5ea",
    "mix6": "7efaeecde7d4b7b4bb9ba72330d467ed6d4ee564790da8dabde2755ed1e08882",
    "mix7": "1fc41cb61d28a6eb5ea219c4b8d97ef955de248fffba8cf15ea7af1c13d9acb7",
    "mix8": "98ebb3519720703699893224d9f5e0479c29304f75215184c8265ae504a20d95",
    "mix9": "40ae3fc69d6575398f8b9065f31eb5c471844c05f14deeec0a43b0aecd19dd61",
    "mixA": "6f0162752df4722ff0d094b8e46a82c99d5b4e3038175c6ade7125a135a074f5",
    "mixB": "8737a95a13afa77a20936393698cfb487b16e3d4203cb6222407d2af02695c22",
    "mixC": "06c7bde0b8cc7643c574ed14cf0d3174cfb88e1ad6c70dc5c9b7b04c34afe1f7",
    "mixD": "03fe57f3e5c42425139d0ff7fe8ee1c6d95e40ecc3d3a7ab62668215b2a14fd2",
    "mix1/overcommit": "1e00de6e2b7b46bb43b797a43dbfdd0b1dd2a28935099d250495b3c26574552b",
    "diurnal-web/adaptive": "a1f45633ad386a7f3a43b6f2ac3ea819470179a9cab8c9c6441496305b99554f",
    "mix5/speeds": "5efd3ff7a9847d8c40e0ac8dfbab6de657b2bcab76f1376ae89d6ee3e34373d5",
    "mix2/fifo": "1ce8c82374c5ab02ddcd9f4dbbc2efea79252e8fd0d0c63b55d33e6dcf4a4acf",
    "mix2/random": "a493b2511bd923d2c97f574d5a8b9efd1f03f776c9a56d32909f398628db0629",
    "mix3/quota": "ead6e3c2577ba785d7ea98eb08bd0be69897f73970eb44eaa07748ceb000a5b0",
    "mix5/ucp": "eb32cdb9322b750efcb6a9b40c7fe298cd8fe3e0e64ec248a11d6181341e7356",
    "mix1/dircache": "8cf5ede12365827f2220aca98137ea8644fe2e79e67d563d4463f7a44be7e890",
    "mix1/asym": "d9d1d05f6ce5e9d434896e86f9f6b6a555f94284b9ecab09c3dcdc3fc2e7bee3",
    "mix1/target-slowdown":
        "8779ef94d615a992d0e8315e2ae0ba1447df863a9ce371a22bd10c17907dbbcf",
    "mix3/missrate-prop":
        "e84c1b107cf369cc32363ae6249c6905dd6795f4a743a45fcd8560b9d217e9a8",
    "mix2/contention":
        "c06ee84264762f5d685575c4ea5d6d1364c83dbd16adec92371cddc6d62ff917",
    "mix5/hetero":
        "4dfc292290a3f03f6eee71355056e78eee1658f6f601053d7f9fef989b12dd56",
}

_BASE = dict(measured_refs=600, warmup_refs=200, seed=7,
             engine_mode="reference")


def _spec(cell):
    mix, _, variant = cell.partition("/")
    params = dict(_BASE, mix=mix)
    if variant == "overcommit":
        params.update(slots_per_core=2)
    elif variant == "adaptive":
        params.update(mix="scn-diurnal-web", scenario="diurnal-web",
                      slots_per_core=2, sched_policy="adaptive",
                      sched_epoch=10_000)
    elif variant == "speeds":
        params.update(core_speeds="1.0x8,0.5x8")
    elif variant in ("fifo", "random"):
        params.update(l2_replacement=variant)
    elif variant == "quota":
        params.update(policy="rr", qos_policy="static-equal")
    elif variant == "ucp":
        params.update(policy="rr", qos_policy="ucp")
    elif variant == "dircache":
        params.update(dir_cache_entries=64)
    elif variant == "asym":
        params.update(l2_asym="16x2,8x2")
    elif variant == "target-slowdown":
        params.update(policy="rr", slots_per_core=2,
                      qos_policy="target-slowdown", qos_target=1.05)
    elif variant == "missrate-prop":
        params.update(policy="rr", qos_policy="missrate-prop")
    elif variant == "contention":
        params.update(policy="rr", sched_policy="contention",
                      sched_epoch=5000)
    elif variant == "hetero":
        params.update(core_speeds="1.0x8,0.5x8", sched_policy="hetero",
                      sched_epoch=5000)
    return ExperimentSpec(**params)


def _run(cell):
    return run_experiment(_spec(cell), use_cache=False)


def _digest_of(result):
    payload = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _digest(cell):
    return _digest_of(_run(cell))


#: cell -> (result attribute, summary count that shows the hook acted)
_ACTING = {
    "mix1/target-slowdown": ("qos", "quota_adjustments"),
    "mix3/missrate-prop": ("qos", "quota_adjustments"),
    "mix2/contention": ("sched", "migrations"),
    "mix5/hetero": ("sched", "migrations"),
}


@pytest.mark.parametrize("cell", sorted(_CELLS))
def test_reference_result_digest_is_pinned(cell):
    result = _run(cell)
    assert _digest_of(result) == _CELLS[cell]
    if cell in _ACTING:
        attribute, count = _ACTING[cell]
        assert getattr(result, attribute)[count] > 0


if __name__ == "__main__":  # pragma: no cover - digest regeneration
    mixes = [f"mix{i}" for i in range(1, 10)] + ["mixA", "mixB", "mixC", "mixD"]
    variants = ["mix1/overcommit", "diurnal-web/adaptive", "mix5/speeds",
                "mix2/fifo", "mix2/random", "mix3/quota", "mix5/ucp",
                "mix1/dircache", "mix1/asym", "mix1/target-slowdown",
                "mix3/missrate-prop", "mix2/contention", "mix5/hetero"]
    for cell in mixes + variants:
        print(f'    "{cell}": "{_digest(cell)}",')
