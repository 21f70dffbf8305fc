import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from patchmix.cli import FINAL_METRICS_FILE, main

from test_cli import config_data

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digests.py"
RECORDED = Path(__file__).resolve().parent / "artifact_digests.json"
spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
artifact_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_digests)


def write(path, run):
    path.write_text(json.dumps({"runs": {"tiny": run}}))
    return str(path)


def test_reruns_compare_equal_and_an_edited_file_is_reported(tmp_path, capsys):
    config = config_data("")
    a = artifact_digests.digest_pipeline(main, config, tmp_path / "a")
    b = artifact_digests.digest_pipeline(main, config, tmp_path / "b")
    assert a["exit_code"] == 0 and "best_score," in a["stdout"]
    assert len(a["files"]) == 8
    paths = write(tmp_path / "a.json", a), write(tmp_path / "b.json", b)
    capsys.readouterr()
    assert artifact_digests.main(["--compare", *paths]) == 0
    assert capsys.readouterr().out == "no differences\n"

    with open(tmp_path / "b" / FINAL_METRICS_FILE, "a") as f:
        f.write("edited\n")
    b["files"] = artifact_digests.file_digests(tmp_path / "b")
    write(tmp_path / "b.json", b)
    assert artifact_digests.main(["--compare", *paths]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"tiny files/{FINAL_METRICS_FILE}: ")


def test_an_entry_only_one_side_has_is_reported():
    run = {"exit_code": 0, "stdout": "", "files": {"x": "00"}}
    other = {**run, "files": {}}
    lines = artifact_digests.differences({"runs": {"r": run}}, {"runs": {"r": other, "s": run}})
    assert lines == ["r files/x: '00' != 'missing'", "s: only in B"]


def test_a_clean_compare_adds_the_environments_the_first_file_lacks(tmp_path, capsys):
    run = {"exit_code": 0, "stdout": "", "files": {"x": "00"}}
    v3, v4 = {"simd": ["V3"]}, {"simd": ["V4"]}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    b.write_text(json.dumps({"environments": [v4], "runs": {"r": run}}))
    compare = ["--compare", str(a), str(b)]
    a.write_text(json.dumps({"environments": [v3], "runs": {"r": {**run, "stdout": "1"}}}))
    assert artifact_digests.main(compare) == 1
    assert json.loads(a.read_text())["environments"] == [v3]

    a.write_text(json.dumps({"environments": [v3], "runs": {"r": run}}))
    assert artifact_digests.main(compare) == 0
    record = json.loads(a.read_text())
    assert record == {"environments": [v3, v4], "runs": {"r": run}}
    before = a.read_bytes()
    assert artifact_digests.main(compare) == 0  # nothing left to add
    assert a.read_bytes() == before


def test_every_artifact_matches_the_recorded_digests(tmp_path):
    # A change that means to move artifacts regenerates RECORDED with the
    # script, and a host in another environment is added to its list by a
    # clean compare (see the script's docstring); this test never writes it.
    fresh = tmp_path / "digests.json"
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(fresh)], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    verified = json.loads(RECORDED.read_text())["environments"]
    (now,) = json.loads(fresh.read_text())["environments"]
    if now not in verified:
        last = verified[-1]
        changed = {
            key: f"{last.get(key)!r} recorded, {now.get(key)!r} here"
            for key in sorted(last.keys() | now.keys())
            if last.get(key) != now.get(key)
        }
        pytest.skip(f"{RECORDED.name} was verified in other environments: {changed}")
    compare = subprocess.run(
        [sys.executable, str(SCRIPT), "--compare", str(RECORDED), str(fresh)],
        capture_output=True, text=True,
    )
    assert compare.returncode == 0, f"artifacts differ from {RECORDED.name}:\n{compare.stdout}"
