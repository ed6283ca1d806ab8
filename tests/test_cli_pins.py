"""The command outputs that .github/workflows/tests.yml pins by sha256,
checked in process: each command runs through ``cli.main`` and must give
the same exit code and the same bytes."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from dispersim import cli

DATA = Path(__file__).parent / "data"


def sha(data: str | bytes) -> str:
    return hashlib.sha256(
        data.encode() if isinstance(data, str) else data).hexdigest()


def main(*argv: str) -> tuple[int, str]:
    """The exit code and what the command prints on stdout."""
    lines: list[str] = []
    code = cli.main(list(argv), out=lines.append)
    return code, "".join(f"{line}\n" for line in lines)


def named(*cases):
    """Parameter sets, each with its first value as its id."""
    return [pytest.param(*case, id=case[0]) for case in cases]


def forged(path, line: int, was: str, text: str):
    """A copy of the trace at ``path`` whose 1-based ``line``, which must
    read ``was``, reads ``text``."""
    lines = path.read_text().split("\n")
    assert lines[line - 1] == was
    lines[line - 1] = text
    copy = path.with_name(f"{path.stem}_forged.trace")
    copy.write_text("\n".join(lines))
    return copy


@pytest.mark.parametrize("name, trace, verify", named(
    ("large_alg3",
     "4dd6d013628be3ca5a6f3a5064438c425bf4752e932ea279de4820152a1f08f0",
     "d79d2df1781e584d55afb61b2a61d9cc0b055bf86dd35f98ba21561fd1ff29ed"),
    ("long_cycle",
     "58ec9023f4c7290b0f20e834e5158dee8eef880748e6f7180c6f653b9a5f65c0",
     "852ffa1caf6d0d46a3971360b27e8f54d6aadd6507fd9eef0f264ad82c93a0ac"),
    ("long_tpath_cycle",
     "87e980e1f77d3556fa9eb86f0ee229895e479b611dbe82b5d5398015948aad78",
     "0ae64781a68365e669f4348cb760ad905975796ee989d5532cf9d5373bbb8ee7"),
    ("wide_ct",
     "6885ffe2282c41b0179b6e1cc8f1af84b15b82b87c1f67cfa7b83289097370e0",
     "a5b20c6429beac3dca6adf6409576b44c77ae1c756ff2f79de7daee67384cd4f"),
))
def test_a_run_and_its_verify_keep_their_bytes(tmp_path, name, trace, verify):
    path = tmp_path / f"{name}.trace"
    code, text = main("run", str(DATA / f"{name}.scn"),
                      "--trace-out", str(path))
    assert code == 0 and text.startswith(f"trace written to {path}\n")
    assert sha(path.read_bytes()) == trace
    code, text = main("verify", str(path))
    assert (code, sha(text)) == (0, verify)


@pytest.mark.parametrize("name, line, was, text, verify", named(
    # round 15,000's msgs: line, deep in the repeated tail
    ("long_cycle", 105008, "msgs: 100", "msgs: 999",
     "7ce7de3755b237b98038df1c90b0403c8dace314e6d5440989169474aa5e2959"),
    # round 15,000's edges: line, so t_path fails in the windows through it
    ("long_tpath_cycle", 105003, "edges: 0-1:0,0 2-3:0,0", "edges:",
     "87ec0a884cc21dceed5db7a9c31b21dfed82a433df253e34bc7ad3d5ab00e495"),
))
def test_a_forged_round_deep_in_a_cycle_is_flagged(
    tmp_path, name, line, was, text, verify
):
    path = tmp_path / f"{name}.trace"
    main("run", str(DATA / f"{name}.scn"), "--trace-out", str(path))
    assert path.read_text().split("\n")[105001] == "round r=15000"
    code, out = main("verify", str(forged(path, line, was, text)))
    assert (code, sha(out)) == (1, verify)


@pytest.mark.parametrize("name, seeds, code, digest", named(
    ("sweep_alg2", "0..49", 0,
     "b111610be375c75d044a959ae0177297e6ce1e3b60d8b3aa2406b355bffa9108"),
    ("sweep_alg3_f2f", "0..29", 1,
     "7c8bf6d8d51591a621940f92f02ca4412a890d795b1a8b0d60a9e9eec4987463"),
    ("sweep_alg2_t2", "0..29", 1,
     "0f8f2a115fcda9205196652a88b63a3749c755b572f93bb0cb0fbe4cf2ef1f21"),
))
def test_a_sweep_keeps_its_bytes(name, seeds, code, digest):
    got, text = main("sweep", str(DATA / f"{name}.scn"), "--seeds", seeds)
    assert (got, sha(text)) == (code, digest)


MINIMAL_T = ("t_interval: minimal T = none\nt_path: minimal T = 3\n"
             "connectivity_time: minimal T = 3\n")


def test_classify_keeps_its_answers(tmp_path):
    path = str(DATA / "random_tpath.sched")
    assert main("classify", path) == (0, MINIMAL_T)
    for prop in ("t_path", "connectivity_time"):
        assert main("classify", path, "--property", prop, "--T", "2") == (
            1, f"{prop} at T=2: fails (window at r=0, pair 0-8);"
               " dynamic diameter inf\n")
        assert main("classify", path, "--property", prop, "--T", "3") == (
            0, f"{prop} at T=3: holds; dynamic diameter inf\n")
    # CRLF line ends and a comment on every line: read line by line
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    crlf = tmp_path / "random_tpath_crlf.sched"
    crlf.write_bytes("".join(f"{line}  # a comment\r\n"
                             for line in lines).encode())
    assert main("classify", str(crlf)) == (0, MINIMAL_T)
