"""The command line's bytes, replayed against a recorded transcript.

``tests/data/cli_transcript.json`` holds, for every invocation in ``CASES``,
the exit status, the standard output and the last line of standard error,
plus the structure of ``build_parser()``: each subcommand's option strings,
defaults, choices and help strings (the rendered ``--help`` text changes
between Python versions, so it is not pinned).  ``weights`` and ``coeffs``
are pinned byte for byte.  Reports mask ``wall_ms`` and the residual digits,
as ``smoke_verdicts.txt`` does.  To re-record after a deliberate change of
output, run ``PYTHONPATH=src python tests/test_cli_transcript.py``.
"""

import contextlib
import io
import json
import pathlib
import re

import pytest

from bergman_lab import cli

TRANSCRIPT = pathlib.Path(__file__).parent / "data" / "cli_transcript.json"
FORMATS = ("text", "json", "csv")
TMP = "{tmp}"

CASES = [
    *[("weights", "--alpha", alpha, "--dim", "5", "--format", fmt)
      for alpha in ("0.5", "1/2", "-0.75") for fmt in FORMATS],
    *[("coeffs", "--N", n, "--alpha", alpha, "--dim", "5", "--format", fmt)
      for n, alpha in (("2", "0.5"), ("3", "1/3")) for fmt in FORMATS],
    ("weights", "--alpha", "0.5", "--dim", "3", "--mode", "exact"),
    ("coeffs", "--N", "2", "--alpha", "1/3", "--dim", "3", "--mode", "float64"),
    *[("verify", "--check", check, "--N", "2", "--alpha", alpha, "--dim", "10",
       "--format", fmt)
      for check, alpha in (("norm_identity", "0.5"), ("left_inverse", "1/2"),
                           ("telescoping", "1.0"))
      for fmt in FORMATS],
    *[("verify", "--check", "norm_identity", "--N", "2", "--alpha", "0.5", "--dim", "16",
       "--tol", "1e-300", "--format", fmt) for fmt in FORMATS],
    *[("beurling", "--N", "2", "--alpha", alpha, "--dim", "12", "--residues", "1",
       "--depth", "2", "--seed", "7", "--format", fmt)
      for alpha in ("1.0", "1/2") for fmt in FORMATS],
    *[("census", "--N", "2", "--alpha", alpha, "--dim", "10", "--format", fmt)
      for alpha in ("0.5", "1/2") for fmt in FORMATS],
    *[("suite", "--grid", "smoke", "--format", fmt) for fmt in FORMATS],
    # usage errors
    (),
    ("weights", "--alpha", "abc", "--dim", "3"),
    ("weights", "--alpha", "-2.0", "--dim", "3"),
    ("weights", "--alpha", "inf", "--dim", "3"),
    ("weights", "--alpha", "1e300", "--dim", "3"),
    ("coeffs", "--N", "1", "--alpha", "1e400", "--dim", "3"),
    ("weights", "--alpha", "0.5", "--dim", "0"),
    ("coeffs", "--N", "0", "--alpha", "0.5", "--dim", "3"),
    ("verify", "--check", "coeff_bounds", "--N", "2", "--alpha", "0.5",
     "--dim", "16", "--residues", "5"),
    ("verify", "--check", "coeff_bounds", "--N", "2", "--alpha", "0.5",
     "--dim", "16", "--residues", "x"),
    ("verify", "--check", "coeff_bounds", "--N", "2", "--alpha", "0.5", "--dim", "2"),
    ("verify", "--check", "coeff_bounds", "--N", "2", "--alpha", "0.5",
     "--dim", "16", "--tol", "-1"),
    ("verify", "--check", "coeff_bounds", "--N", "2", "--alpha", "0.5",
     "--dim", "16", "--depth", "0"),
    ("verify", "--check", "expansive", "--N", "1", "--alpha", "1e300", "--dim", "3"),
    ("beurling", "--N", "1", "--alpha", "1e300", "--dim", "3"),
    ("census", "--N", "1", "--alpha", "1e300", "--dim", "3"),
    ("verify", "--check", "expansive", "--N", "1", "--alpha", "1e60", "--dim", "3"),
    ("verify", "--check", "telescoping", "--N", "3", "--alpha", "1390",
     "--dim", "256", "--residues", "0,1"),
    ("verify", "--check", "nonsense", "--N", "2", "--alpha", "0.5", "--dim", "16"),
    # I/O errors and written files
    ("weights", "--alpha", "0.5", "--dim", "3", "--out", TMP + "/missing-dir/report.json"),
    ("verify", "--check", "coeff_bounds", "--N", "2", "--alpha", "0.5", "--dim", "8",
     "--out", TMP + "/missing-dir/report.json"),
    ("coeffs", "--N", "2", "--alpha", "1/2", "--dim", "4", "--format", "csv",
     "--out", TMP + "/coeffs.csv"),
    ("census", "--N", "1", "--alpha", "1/2", "--dim", "6", "--format", "json",
     "--out", TMP + "/census.json"),
]


def mask(command: str, text: str) -> str:
    """Mask wall_ms and residual digits of a report; tables stay as they are."""
    if command in ("weights", "coeffs"):
        return text
    text = re.sub(r'"(wall_ms|residual)": [^,\n]+', r'"\1": *', text)
    text = re.sub(r"residual=\S+", "residual=*", text)
    lines = text.splitlines(keepends=True)
    if lines and lines[0].startswith("name,"):
        header = lines[0].rstrip("\n").split(",")
        cols = [header.index("residual"), header.index("wall_ms")]
        for i in range(1, len(lines)):
            fields = lines[i].rstrip("\n").split(",")
            for c in cols:
                fields[c] = "*"
            lines[i] = ",".join(fields) + "\n"
    return "".join(lines)


def run_case(argv: tuple, tmp: pathlib.Path) -> dict:
    """One invocation of the CLI as a transcript record."""
    args = [a.replace(TMP, str(tmp)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    out, err = out.getvalue(), err.getvalue()
    command = argv[0] if argv else ""
    record = {
        "argv": list(argv),
        "exit": code,
        "stdout": mask(command, out).splitlines(keepends=True),
        "stderr_last": (err.splitlines() or [""])[-1].replace(str(tmp), TMP),
    }
    if "--out" in args:
        path = pathlib.Path(args[args.index("--out") + 1])
        if path.exists():
            record["out_file"] = mask(command, path.read_text(encoding="utf-8")).splitlines(
                keepends=True)
    return record


def parser_structure() -> dict:
    """Subcommands of ``build_parser()`` with each option's strings, default,
    choices, help and required flag."""
    parser = cli.build_parser()
    (subactions,) = [a for a in parser._actions if a.dest == "command"]
    helps = {c.dest: c.help for c in subactions._choices_actions}
    structure = {"prog": parser.prog, "description": parser.description, "commands": {}}
    for name, sub in subactions.choices.items():
        structure["commands"][name] = {
            "help": helps[name],
            "options": [
                {
                    "option_strings": a.option_strings,
                    "default": a.default,
                    "choices": None if a.choices is None else list(a.choices),
                    "help": a.help,
                    "required": a.required,
                }
                for a in sub._actions
            ],
        }
    return structure


def record_all(tmp: pathlib.Path) -> dict:
    return {
        "parser": parser_structure(),
        "runs": [run_case(argv, tmp) for argv in CASES],
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def test_parser_structure_matches_transcript(recorded):
    assert parser_structure() == recorded["parser"]


def test_transcript_lists_every_case(recorded):
    assert [tuple(r["argv"]) for r in recorded["runs"]] == CASES


@pytest.mark.parametrize("i", range(len(CASES)), ids=[" ".join(c) or "no-args" for c in CASES])
def test_invocation_matches_transcript(i, recorded, tmp_path):
    assert run_case(CASES[i], tmp_path) == recorded["runs"][i]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        transcript = record_all(pathlib.Path(tmp))
    TRANSCRIPT.write_text(json.dumps(transcript, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(transcript['runs'])} runs to {TRANSCRIPT}")
