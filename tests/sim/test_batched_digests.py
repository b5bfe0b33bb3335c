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
    "mix1": "c0b91de4e60c2fa07e51c37916daf604ff57857a5c41e5be6756b6b6fa02f557",
    "mix2": "df399e65af792f309c174d6726855c1d8948caa753ea42ccf8e1320ce5246d7e",
    "mix3": "881bdb1d4851f622af6d7982b9c98e9b75b94fe8479d14c7e47ffd03833f26e3",
    "mix4": "42f8d595423907e1b6602554d36e83c90be9d66575619e6493f0e7ce2c9513af",
    "mix5": "5881dad3f29b440b9b6fae7c0a0ed3c1b58c00bf0e636fa37c10125f3740e925",
    "mix6": "223ef7a46c3bc5ace7de2eeed1f69fe5058743f283348ecb01ed1affac44defc",
    "mix7": "afbec65ca17a90047fbb1b799cb386ec3ecc36f121547d86fcf508e08285ea39",
    "mix8": "35728f53f0a2e2bfd0bfa6ec6493baf9fec352131d3bff9cca8d7e5ac8525568",
    "mix9": "55b9a370b335897ff90ccb2ca7d2ae677e98527f104eedc05af98e9175bffbc7",
    "mixA": "8ed0352ca8149b8331afc711effebecc9e35e0e76593b2e2abff488f5f79eac1",
    "mixB": "bd5a1cff0f4db66023a8f9d2391f1b334c772b3b11ef7d4593b58c26e68cc225",
    "mixC": "833ab177ee013a6322a9cac1eac103cadac104004a06e48a7718fe1e9cf7d040",
    "mixD": "a2d1c2469726412f23769380ecd3853b2450b230589672a49c90e9f9ce66aef2",
    "mix7/qos": "e2fcbe7d604cd6eccf6430f044d2f4c2cd0b6d3e2fd064124d45540391b40c4f",
    "mix1/private": "45fef75ab09758d0c6947e5e8c5db8949ccbce06fd415e9a723d04e03fe6f3a8",
    "mix1/smalldir": "6e135c215880af2505d406d0207e787ebbf1eb3bb665a575fffa7704cc006dc6",
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
