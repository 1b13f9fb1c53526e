"""Print the sha256 of every file the CLI commands write.

Runs `gen-data`, `train`, `eval`, `analyze-features`, `sweep-margins`
and `adapt` at the default config with `--seed N` in a temporary
directory, and once more `adapt --checkpoint` from the `train`
checkpoint into `adapt-pretrained/`. `eval` and `analyze-features` run
twice more, into `eval-interleaved/` and `analyze-features-interleaved/`,
on a copy of `gen-data`'s `bona_fides.jsonl` whose records are
interleaved across identities (each identity's records keep their
order). `gen-data`, `train`, `eval` and `analyze-features` run once more
under `wide/`, with a config file the script writes: 200 identities,
dims 128/256/128 and one training epoch, so evaluation embeds the trial
parents and morphs in several forward blocks. There, too, `eval` and
`analyze-features` run twice more, into `wide/eval-interleaved/` and
`wide/analyze-features-interleaved/`, on an interleaved copy of
`wide/gen-data/bona_fides.jsonl`, so the pool-order rule is checked
where the held-out rows, trial parents and morphs each span several
blocks. `print-default-config`'s
stdout is digested as the file `print-default-config/stdout`. It prints
one `<relative path> <sha256>` line per output file, sorted by path. Diffing the output of two
checkouts shows which output bytes a change moved:

    python3 tools/cli_digests.py --seed 1 > before.txt
    python3 tools/cli_digests.py --seed 1 ../base > base.txt

The optional argument names the checkout whose `morphguard` package runs
the commands; it defaults to the checkout this script lives in. So one
script, with one command list, can digest two checkouts.

The commands' own progress lines go to stderr. Exits with the first
non-zero exit code of a command.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

# The wide tier's config: its trial parents and morphs span several forward blocks each.
WIDE_CONFIG = {
    "data": {"num_classes": 200, "input_dim": 128},
    "model": {"hidden_dims": [256], "embedding_dim": 128},
    "train": {"epochs": 1},
}


def interleave_records(source: Path, target: Path, seed: int):
    """Write source's JSONL records to target in a seeded order across
    identities (`y_dot`), each identity's records in their source order."""
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    queues = {}
    for line in lines:
        queues.setdefault(json.loads(line)["y_dot"], []).append(line)
    owners = [owner for owner, queue in queues.items() for _ in queue]
    random.Random(seed).shuffle(owners)
    pending = {owner: iter(queue) for owner, queue in queues.items()}
    target.write_text("".join(next(pending[owner]) for owner in owners), encoding="utf-8")


def run_commands(cli_main, root: Path, inputs_dir: Path, seed: int) -> int:
    common = ["--seed", str(seed)]
    checkpoint = ["--checkpoint", str(root / "train" / "checkpoint.bin")]
    protocol = ["--protocol", str(root / "gen-data" / "protocol.json")]
    pool = ["--data", str(root / "gen-data" / "bona_fides.jsonl")]
    interleaved = inputs_dir / "bona_fides.jsonl"
    shuffled_pool = ["--data", str(interleaved)]
    wide_interleaved = inputs_dir / "wide_bona_fides.jsonl"
    wide_config = inputs_dir / "wide.json"
    wide_config.write_text(json.dumps(WIDE_CONFIG), encoding="utf-8")
    wide = ["--config", str(wide_config)]
    wide_model = ["--checkpoint", str(root / "wide" / "train" / "checkpoint.bin")]
    wide_protocol = ["--protocol", str(root / "wide" / "gen-data" / "protocol.json")]
    wide_inputs = [*wide_model, "--data", str(root / "wide" / "gen-data" / "bona_fides.jsonl"), *wide_protocol]
    wide_shuffled_inputs = [*wide_model, "--data", str(wide_interleaved), *wide_protocol]
    # Each interleaved pool, written just before the first command that reads it.
    interleavings = {
        "eval-interleaved": (root / "gen-data" / "bona_fides.jsonl", interleaved),
        "wide/eval-interleaved": (root / "wide" / "gen-data" / "bona_fides.jsonl", wide_interleaved),
    }
    # (output directory, command and its own arguments)
    commands = [
        ("gen-data", ["gen-data"]),
        ("train", ["train"]),
        ("eval", ["eval", *checkpoint, *pool, *protocol]),
        ("analyze-features", ["analyze-features", *checkpoint, *pool, *protocol]),
        ("eval-interleaved", ["eval", *checkpoint, *shuffled_pool, *protocol]),
        ("analyze-features-interleaved", ["analyze-features", *checkpoint, *shuffled_pool, *protocol]),
        ("sweep-margins", ["sweep-margins"]),
        ("adapt", ["adapt"]),
        ("adapt-pretrained", ["adapt", *checkpoint]),
        ("wide/gen-data", ["gen-data", *wide]),
        ("wide/train", ["train", *wide]),
        ("wide/eval", ["eval", *wide, *wide_inputs]),
        ("wide/analyze-features", ["analyze-features", *wide, *wide_inputs]),
        ("wide/eval-interleaved", ["eval", *wide, *wide_shuffled_inputs]),
        ("wide/analyze-features-interleaved", ["analyze-features", *wide, *wide_shuffled_inputs]),
    ]
    for out, command in commands:
        if out in interleavings:
            interleave_records(*interleavings[out], seed)
        argv = [command[0], *common, "--out", str(root / out), *command[1:]]
        with contextlib.redirect_stdout(sys.stderr):
            code = cli_main(argv)
        if code != 0:
            print(f"`{out}` exited {code}", file=sys.stderr)
            return code
    # The only stdout digested: the other commands' summary lines name temporary paths.
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(["print-default-config"])
    (root / "print-default-config").mkdir()
    (root / "print-default-config" / "stdout").write_text(stdout.getvalue(), encoding="utf-8")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="seed passed to every command")
    parser.add_argument("checkout", type=Path, nargs="?", default=HERE,
                        help="checkout whose morphguard package runs the commands (default: this one)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from morphguard.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        root, inputs_dir = Path(tmp) / "out", Path(tmp) / "inputs"
        root.mkdir()
        inputs_dir.mkdir()
        code = run_commands(cli_main, root, inputs_dir, args.seed)
        if code != 0:
            return code
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{path.relative_to(root).as_posix()} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
