"""Golden bytes: the acceptance pipeline must reproduce its recorded artifacts.

The digests in ``golden_digests.json`` pin the exact bytes of the model
file, the run summary, the scores, synth's ground-truth sidecar and what
``eval`` prints, and the pipeline must write nothing to stderr.  A
change that alters numerics on purpose re-records them and says why in
CHANGES.md; any other change must leave them untouched.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ecnn.cli import run

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_digests.json")).read_text(encoding="utf-8")
)


def test_acceptance_pipeline_reproduces_golden_bytes(tmp_path, capsys):
    data = tmp_path / "synth.csv"
    model = tmp_path / "model.ecnn"
    scores = tmp_path / "scores.csv"
    assert run(["synth", "--n", "2857", "--m", "72", "--relevant", "10,23,36,60",
                "--seed", "21", "--out", str(data)]) == 0
    assert run(["train", "--data", str(data), "--label", "y", "--runs", "10",
                "--seed", "77", "--test-fraction", "0.25", "--out", str(model)]) == 0
    assert run(["predict", "--model", str(model), "--data", str(data),
                "--label", "y", "--out", str(scores)]) == 0
    stderr = capsys.readouterr().err
    assert run(["eval", "--model", str(model), "--data", str(data), "--label", "y"]) == 0
    captured = capsys.readouterr()
    assert stderr + captured.err == ""
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("synth.csv", "model.ecnn", "model.runs.csv", "scores.csv",
                     "synth.truth.json")
    }
    digests["eval.stdout"] = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    expected = {name: GOLDEN[name] for name in digests}
    assert digests == expected
