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
static way-quota cell, a live UCP cache-QoS cell, a cell with 64-entry
directory caches and an asymmetric-L2 cell.  The two quota cells place
threads round robin, so every shared domain holds several VMs and gets
quotas; mix3 fills L2 sets within 600 refs, so its quota cell also
runs the quota victim selector.

A deliberate model change updates the digests below; regenerate them
with ``PYTHONPATH=src python tests/sim/test_reference_digests.py``.
"""

import hashlib
import json

import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.store import result_to_dict

_CELLS = {
    "mix1": "759b1e586f5dfe7e79561b5fa7ed1cd340953a6df2c980c49d23a4453a6e696b",
    "mix2": "34ae00d1c14744e0231cba797d43c19d46bc0427ea5a68dee88fc8557af3c885",
    "mix3": "7de5fac910cee0f79612e14f6f46bf2675d1a78ef6cb8a36cc587e781ada7492",
    "mix4": "33edea8a9a21d4420660c6be64e943c296ff7acb89fd18029135f2e6ee34fe13",
    "mix5": "54fbf7c72290dd8419d0d18881160c0b18ce1419dd560f07f27b7ef27c7c043a",
    "mix6": "55a65276b8ec3d5418a6640a05c9b5cc27ce32900f66a37a7c06145b3f235315",
    "mix7": "8fd847071140e63e92a12a97ab596fe8fc321d0ff4d6d5c9b5618fc85c7b5298",
    "mix8": "0508c79686003cc82acd669ac2de4d7a51bfd5ba7a6aca182a4176018ada2cef",
    "mix9": "3f3e642117ed12defeed372de2d955ca00357b215e17445317a95eb483655cf8",
    "mixA": "c1850e052cf723d95b0c431a4330b963a5ed459fea0a9dbe4b1caf345c037da8",
    "mixB": "e5c842e86c3765cd4d2f3410837d4437fd87b5163bed63af07b3d85efe66209f",
    "mixC": "62c236155bceed2906d980cbd65b60e29df9ff5372650d68396b2c3e3cfbbebe",
    "mixD": "45cf54db0347f2147dabe6889f06c30d2200797536231a8f7b7064972a3e871b",
    "mix1/overcommit": "38c0ad2d57d99bfcd8839956e6b49cc93e41dfae855480532f674085ffb7c7d6",
    "diurnal-web/adaptive": "236d5ed3e7edd9e402033f464074d741d7a2aab21ef69b38a2ee07d80d994aec",
    "mix5/speeds": "08bb9fc2c84c2829c7a39d599b5f80097f354da6ae0e618d041b410b983f7bc7",
    "mix2/fifo": "bd6003b9e62c2801df98a9893b104fb2cfb48360e1a5705bc890c9004aed862e",
    "mix2/random": "53284b7ba3284670018bcb34bcc6f9a42aadd574606f20335d8c30499b47583b",
    "mix3/quota": "5744b7dccabd75344d0ad64a08b11cbb0a11cf13e1fc7e30ae82f88f234b3cfd",
    "mix5/ucp": "6d367e3fb4fa700648b3b75e4aa240ff1b01a76ce9116c075acec86608a58487",
    "mix1/dircache": "4852998a4dc6105745d87f0a6400cd601eced51fdd0456cd97b7ab013c9693c0",
    "mix1/asym": "7f73ed7538e5e410b1549cabcf047a62eea42953245a9cbc1fe8bbaa8ae969df",
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
        params.update(policy="rr", l2_vm_quota=True)
    elif variant == "ucp":
        params.update(policy="rr", qos_policy="ucp")
    elif variant == "dircache":
        params.update(dir_cache_entries=64)
    elif variant == "asym":
        params.update(l2_asym="16x2,8x2")
    return ExperimentSpec(**params)


def _digest(cell):
    result = run_experiment(_spec(cell), use_cache=False)
    payload = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("cell", sorted(_CELLS))
def test_reference_result_digest_is_pinned(cell):
    assert _digest(cell) == _CELLS[cell]


if __name__ == "__main__":  # pragma: no cover - digest regeneration
    mixes = [f"mix{i}" for i in range(1, 10)] + ["mixA", "mixB", "mixC", "mixD"]
    variants = ["mix1/overcommit", "diurnal-web/adaptive", "mix5/speeds",
                "mix2/fifo", "mix2/random", "mix3/quota", "mix5/ucp",
                "mix1/dircache", "mix1/asym"]
    for cell in mixes + variants:
        print(f'    "{cell}": "{_digest(cell)}",')
