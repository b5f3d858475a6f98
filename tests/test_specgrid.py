"""Generated-spec derives and validates: a fixed sample of the grid in
specgrid.py."""

import hashlib
import json

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
# the exceptions a generated spec may end in, each a named diagnostic; any
# other (a KeyError, say) would be a program fault
EXPLAINED = ("SpecError", "FTInconsistent", "FTUnderdetermined",
             "SolverError", "SolveError", "DeterminingError",
             "OutOfClassError")


@pytest.mark.parametrize("command", sorted(PINNED))
def test_generated_outcomes_are_pinned(tmp_path, command):
    # a change here moved what some generated spec derives or validates;
    # compare `python tests/specgrid.py <command> out.json` on both trees
    # spec by spec
    assert len(SAMPLE) == 87
    path = tmp_path / "grid.spec"
    digest = hashlib.sha256()
    for key, text in SAMPLE:
        path.write_text(text)
        out = specgrid.outcome(path, command)
        assert out.startswith("spec grid (ode-hidden-scale) sha256:") \
            or out.split(":")[0] in EXPLAINED, f"{key}: {out}"
        digest.update(out.encode())
    assert digest.hexdigest() == PINNED[command]


def test_compare_counts_differing_outcomes_per_class(tmp_path, capsys):
    keys = [key for key, _text in SAMPLE[:3]]
    parent = {key: "report" for key in keys}
    change = {**parent, keys[1]: "FTInconsistent: ..."}
    del change[keys[2]]
    a, b = tmp_path / "parent.json", tmp_path / "change.json"
    a.write_text(json.dumps(parent))
    b.write_text(json.dumps(change))
    assert specgrid.main(["compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out == "0 of 3 outcomes differ, in 0 of 3 " \
        "classes\n"
    assert specgrid.main(["compare", str(a), str(b)]) == 1
    classes = [" | ".join(key.split(" | ")[:3]) for key in keys]
    assert capsys.readouterr().out.splitlines() == sorted(
        f"{cls}: 1" for cls in classes[1:]) + [
        "2 of 3 outcomes differ, in 2 of 3 classes"]
