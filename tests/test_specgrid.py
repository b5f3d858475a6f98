"""Generated-spec derives: a fixed sample of the grid in specgrid.py."""

import hashlib

import specgrid

# every 31st spec: 31 is prime to the 28 (setup, order, filter) cells that
# each (operator, perturbation) pair runs through, so the sample visits them
# all; about 2 s of derives on a 2-CPU host
SAMPLE = list(specgrid.grid())[::31]
# sha256 of the sample's derive outcomes, reports and exceptions alike
PINNED = "e0d344263591ce5587a6b04b5f2e18d77b8ff69c2ac007c5dd9d21211849e6a3"


def test_generated_derives_are_pinned(tmp_path):
    # a change here moved what some generated spec derives; compare
    # `python tests/specgrid.py derive out.json` on both trees spec by spec
    assert len(SAMPLE) == 87
    path = tmp_path / "grid.spec"
    digest = hashlib.sha256()
    for _key, text in SAMPLE:
        path.write_text(text)
        digest.update(specgrid.outcome(path, "derive").encode())
    assert digest.hexdigest() == PINNED
