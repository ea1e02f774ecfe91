"""A property test over the CLI's failure paths.

One small pipeline is built once. Each example copies it, corrupts one input
or artifact, and runs a stage that reads that file. Every such run fails: it
exits 2, 3 or 4, prints exactly one `error:` line and no traceback, and
leaves no output, `.part` file or directory behind.
"""

import contextlib
import csv
import functools
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry import ingest
from flowsentry.cli import main

FAST = ["--sigma", "0.5", "--amplitude", "0.5", "--period", "300"]
TRAIN = ["--window", "3", "--units", "4", "--epochs", "1"]

# Each stage's argv over a pipeline copy at r. Outputs go beside the inputs,
# so that the stage gets past its output checks and reads the corrupt file;
# preprocess's goes into two directory levels the stage has to make.
STAGES = {
    "preprocess": lambda r: ["preprocess", "--benign", r / "data/benign.csv", "--attacks", r / "data/attack.csv",
                             "--attack-frac", "1.0", "--out", r / "new/prep"],
    "train": lambda r: ["train", "--input", r / "prep/train.csv", "--scaler", r / "prep/scaler.json", *TRAIN,
                        "--out", r / "m.json", "--history", r / "h.json"],
    "calibrate": lambda r: ["calibrate", "--model", r / "model.json", "--scaler", r / "prep/scaler.json",
                            "--input", r / "prep/train.csv", "--out", r / "t.json"],
    "detect": lambda r: ["detect", "--thresholds", r / "th.json", "--input", r / "prep/test.csv", "--out", r / "v.csv"],
    "evaluate": lambda r: ["evaluate", "--verdicts", r / "verdicts.csv", "--out", r / "report.json",
                           "--roc-points", r / "roc.csv"],
}

# Each corruptible file: the stages that read it, the columns (CSV) or
# top-level keys (JSON) that they need, and the cells a corruption edits:
# the columns a CSV's "nan" corruption fills (every feature cell, or a
# verdicts file's every score), or the arrays, as key paths, one of which
# a JSON file's "reshape" corruption cuts short.
FEATURES, FLOW = ingest.DEFAULT_FEATURES, (*ingest.DEFAULT_FEATURES, "Label")
FILES = {
    "data/benign.csv": (["preprocess"], FLOW, FEATURES),
    "prep/train.csv": (["train", "calibrate"], FLOW, FEATURES),
    "prep/test.csv": (["detect"], FLOW, FEATURES),
    "verdicts.csv": (["evaluate"], ("score", "verdict", "label"), ("score",)),
    "prep/scaler.json": (["train", "calibrate"], ("version", "feature_names", "min", "max"),
                         (("feature_names",), ("min",), ("max",))),
    "model.json": (["calibrate", "detect"], ("version", "config", "encoder", "decoder", "projection"),
                   (("encoder", "w"), ("encoder", "b"), ("decoder", "w"), ("decoder", "b"),
                    ("projection", "weight"), ("projection", "bias"))),
    "th.json": (["detect"], ("version", "threshold", "scaler", "model", "model_sha256"),
                (("scaler", "feature_names"), ("scaler", "min"), ("scaler", "max"))),
}


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    argv = [
        ["synth", "--benign", 80, "--attack", 20, "--seed", 5, "--out", root / "data", *FAST],
        ["preprocess", "--benign", root / "data/benign.csv", "--attacks", root / "data/attack.csv",
         "--attack-frac", "1.0", "--seed", 5, "--out", root / "prep"],
        ["train", "--input", root / "prep/train.csv", "--scaler", root / "prep/scaler.json", *TRAIN,
         "--out", root / "model.json"],
        ["calibrate", "--model", root / "model.json", "--scaler", root / "prep/scaler.json",
         "--input", root / "prep/train.csv", "--out", root / "th.json"],
        ["detect", "--thresholds", root / "th.json", "--input", root / "prep/test.csv", "--out", root / "verdicts.csv"],
    ]
    for args in argv:
        assert run(args)[0] == 0, args
    return root


def corrupt_csv(path, how, needed, filled, draw):
    text = path.read_text(encoding="utf-8")
    if how == "truncate":  # within the header or at its end: a needed column is cut, or no row is left
        path.write_text(text[: draw(st.integers(0, len(text.splitlines()[0])), "cut")], encoding="utf-8")
        return
    rows = list(csv.reader(io.StringIO(text)))
    names = [name.strip() for name in rows[0]]
    if how == "nan":
        for i in map(names.index, filled):
            for row in rows[1:]:
                row[i] = "nan"
    else:
        name = draw(st.sampled_from(needed), "column")
        if how == "rename":
            rows[0][names.index(name)] = " renamed"
        else:
            rows[0].append(f" {name}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def corrupt_json(path, how, needed, filled, draw):
    data = path.read_bytes()
    if how == "truncate":  # short of the closing brace
        path.write_bytes(data[: draw(st.integers(0, len(data.rstrip()) - 1), "cut")])
        return
    doc = json.loads(data)
    if how == "rename":
        key = draw(st.sampled_from(needed), "key")
        doc["renamed"] = doc.pop(key)
    elif how == "reshape":  # the array loses its last element: a row, an entry or a name
        *parents, key = draw(st.sampled_from(filled), "array")
        parent = functools.reduce(dict.__getitem__, parents, doc)
        parent[key] = parent[key][:-1]
    else:
        old = doc["version"]
        # true and a float equal to the version are not the version either
        wrong = st.sampled_from([float(old), True, False]) | st.integers().filter(old.__ne__) | st.text(max_size=3)
        doc["version"] = draw(wrong, "version")
    path.write_text(json.dumps(doc), encoding="utf-8")


CASES = [(name, stage, how) for name, (readers, _, _) in FILES.items() for stage in readers
         for how in (("truncate", "rename", "duplicate", "nan") if name.endswith(".csv")
                     else ("truncate", "rename", "version", "reshape"))]


class TestFailurePaths:
    @pytest.mark.parametrize("name, stage, how", CASES, ids=["-".join(case) for case in CASES])
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_corrupt_input_fails_with_one_error_line_and_leaves_nothing(self, pipeline, name, stage, how, data):
        _, needed, filled = FILES[name]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "run"
            shutil.copytree(pipeline, root)
            corrupt = corrupt_csv if name.endswith(".csv") else corrupt_json
            corrupt(root / name, how, needed, filled, data.draw)
            before = sorted(root.rglob("*"))
            code, err = run(STAGES[stage](root))
            after = sorted(root.rglob("*"))
        assert code in (2, 3, 4), (code, err)
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "Traceback" not in err, err
        assert str(root / name) in lines[0], err
        assert after == before, sorted(set(after) ^ set(before))
