"""Digest the hub labels of the yardstick's road networks.

Builds the contraction-ordered :class:`~repro.network.hub_labeling.HubLabelIndex`
of Metro900 (``metro_dynamic``) and CityB at half scale (``cityb_lunch``,
``scarce_fleet``, ``km_dense``) and prints one line per graph: its name, the
sha256 of the six label arrays (``tobytes()`` of the out/in indptr, rank and
distance arrays) and the build's work counters, where the tree records them.
Two trees, or two runs under different ``PYTHONHASHSEED`` values, build the
same labels exactly when their digests are equal; the script only reads the
index's arrays, so a copy of it runs unchanged in an older checkout.

Run::

    PYTHONPATH=src python benchmarks/label_digest.py
"""

from __future__ import annotations

import hashlib

from repro.network.hub_labeling import HubLabelIndex
from repro.workload.city import CITY_B, metro_profile

LABEL_ARRAYS = ("_out_indptr", "_out_rank_arr", "_out_dist_arr",
                "_in_indptr", "_in_rank_arr", "_in_dist_arr")


def label_digest(index: HubLabelIndex) -> str:
    """sha256 over the bytes of the index's six label arrays."""
    digest = hashlib.sha256()
    for name in LABEL_ARRAYS:
        digest.update(getattr(index, name).tobytes())
    return digest.hexdigest()


def main() -> None:
    graphs = {"Metro900": metro_profile(rows=30, cols=30, name="Metro900"),
              "CityB-half": CITY_B.scaled(0.5)}
    for name, profile in graphs.items():
        index = HubLabelIndex(profile.network_factory())
        work = getattr(index, "build_work", {})
        print(name, label_digest(index),
              *(f"{key}={value}" for key, value in work.items()))


if __name__ == "__main__":
    main()
