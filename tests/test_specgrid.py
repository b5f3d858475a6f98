"""Generated-spec derives and validates: a fixed sample of the grid in
specgrid.py."""

import hashlib

import pytest

import specgrid

# every 31st spec: 31 is prime to the 28 (setup, order, filter) cells that
# each (operator, perturbation) pair runs through, so the sample visits them
# all; about 2 s of derives and 2.4 s of validates on a 2-CPU host
SAMPLE = list(specgrid.grid())[::31]
# sha256 of the sample's outcomes per command, reports and exceptions alike
PINNED = {
    "derive":
        "e0d344263591ce5587a6b04b5f2e18d77b8ff69c2ac007c5dd9d21211849e6a3",
    "validate":
        "f78c007cfb5039fad639a9ca7f6277b899cad0edd4248101fe1de89bd20b29c4",
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_generated_outcomes_are_pinned(tmp_path, command):
    # a change here moved what some generated spec derives or validates;
    # compare `python tests/specgrid.py <command> out.json` on both trees
    # spec by spec
    assert len(SAMPLE) == 87
    path = tmp_path / "grid.spec"
    digest = hashlib.sha256()
    for _key, text in SAMPLE:
        path.write_text(text)
        digest.update(specgrid.outcome(path, command).encode())
    assert digest.hexdigest() == PINNED[command]
