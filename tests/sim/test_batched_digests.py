"""Byte-identity guard for the batched kernel across commits.

The tolerance contract (``test_equivalence.py``) bounds how far the
batched engine may drift from the reference engine; it does not notice
a change that stays inside those bounds.  This guard pins the exact
serialized result of one small batched cell per Table IV mix (plus a
QoS-quota cell and a private-L2 cell, which take the quota-victim and
many-domain paths of the L2 fold, and a cell with 64-entry directory
caches, whose tiles evict), so a kernel rewrite that is meant to
be behaviour-preserving can prove it.

A deliberate model change updates the digests below; regenerate them
with ``PYTHONPATH=src python tests/sim/test_batched_digests.py``.
"""

import hashlib
import json

import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.store import result_to_dict

_CELLS = {
    "mix1": "79ddd26b20ec32cb9d3b57af283fc65702bcdef7ca2689e2a7bdfba51628f0de",
    "mix2": "cb1982a04d6dac1a1f3cdb6133953238d10914d7945694065d02467a1c265320",
    "mix3": "27736371e18ab8c71b209d7da92355f60d49e89e634412fe6388ee83326f1767",
    "mix4": "5efef66f3df5fae3133458ccb0057fdf52351e35c025c7c33a9c5686039c96de",
    "mix5": "d0db5baf9bfb846582998e30de05cac35e9383b9338e1f95f484535e65b9ae12",
    "mix6": "7863234b7db047ed24512ce44fe98b0d2cf054e55482a242ae2c8ef5d0a02ff0",
    "mix7": "829c64cb63e6cfcee4e606739db9ae4dd59b9944f047f8d8564d79727a98782b",
    "mix8": "488c8850f519896c0bf97338ec547eb02fb3d09dc4570d7c3c66402062f74efa",
    "mix9": "d35534ddecf23b58a8e32d8b5f8f3810b141ae29a1a0bab21caeb8e46c3024a6",
    "mixA": "f617e00aaf13df037b4b8afa63f7662dfe6136f2bcba1bdde15241aa2155ab37",
    "mixB": "b8f3885cdbd013bdf8f2230ed5d5c9f64d4e04743a791f648168be4c56105555",
    "mixC": "160e09c3369fefc3195cf71d316efb98e3559c978884224ae0b378ed2dcb08c7",
    "mixD": "1dcccb37f62888b7a1fc2562b216fb2d4d28d698336e9d280924f65c9741c6aa",
    "mix7/qos": "60747917627a805be6ca41653fa4c234b1dc88a2437e26163be8b26131f4755f",
    "mix1/private": "50fa8fa181f2611daed12fc7690d9613f8f37a2839ece374d906037846989ee4",
    "mix1/smalldir": "22b505c8d328e55319d4b8a5880261728af7cc6217842e35b5205bf0a61af857",
}


def _spec(cell):
    mix, _, variant = cell.partition("/")
    params = dict(mix=mix, measured_refs=3000, warmup_refs=1000, seed=7,
                  engine_mode="batched")
    if variant == "qos":
        params.update(sharing="shared", qos_policy="ucp", qos_epoch=5000)
    elif variant == "private":
        params.update(sharing="private")
    elif variant == "smalldir":
        params.update(dir_cache_entries=64)
    return ExperimentSpec(**params)


def _digest(cell):
    result = run_experiment(_spec(cell), use_cache=False)
    payload = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("cell", sorted(_CELLS))
def test_batched_result_digest_is_pinned(cell):
    assert _digest(cell) == _CELLS[cell]


if __name__ == "__main__":  # pragma: no cover - digest regeneration
    mixes = [f"mix{i}" for i in range(1, 10)] + ["mixA", "mixB", "mixC", "mixD"]
    for cell in mixes + ["mix7/qos", "mix1/private", "mix1/smalldir"]:
        print(f'    "{cell}": "{_digest(cell)}",')
