"""Print the sha256 of every file the six CLI commands write.

Runs `gen-data`, `train`, `eval`, `analyze-features`, `sweep-margins`
and `adapt` at the default config with `--seed N` in a temporary
directory, and once more `adapt --checkpoint` from the `train`
checkpoint into `adapt-pretrained/`. It uses the `morphguard` package
of the checkout this script lives in, and prints one
`<relative path> <sha256>` line per output file, sorted by path.
Diffing the output of two checkouts shows which output bytes a change
moved:

    python3 tools/cli_digests.py --seed 1 > before.txt

The commands' own progress lines go to stderr. Exits with the first
non-zero exit code of a command.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from morphguard.cli import main as cli_main  # noqa: E402


def run_commands(root: Path, seed: int) -> int:
    common = ["--seed", str(seed)]
    inputs = [
        "--checkpoint", str(root / "train" / "checkpoint.bin"),
        "--data", str(root / "gen-data" / "bona_fides.jsonl"),
        "--protocol", str(root / "gen-data" / "protocol.json"),
    ]
    pretrained = ["--checkpoint", str(root / "train" / "checkpoint.bin")]
    # (output directory, command and its own arguments)
    commands = [
        ("gen-data", ["gen-data"]),
        ("train", ["train"]),
        ("eval", ["eval", *inputs]),
        ("analyze-features", ["analyze-features", *inputs]),
        ("sweep-margins", ["sweep-margins"]),
        ("adapt", ["adapt"]),
        ("adapt-pretrained", ["adapt", *pretrained]),
    ]
    for out, command in commands:
        argv = [command[0], *common, "--out", str(root / out), *command[1:]]
        with contextlib.redirect_stdout(sys.stderr):
            code = cli_main(argv)
        if code != 0:
            print(f"`{out}` exited {code}", file=sys.stderr)
            return code
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="seed passed to every command")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        code = run_commands(root, args.seed)
        if code != 0:
            return code
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{path.relative_to(root).as_posix()} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
