"""Fail when a change moves a CLI output byte without a version bump.

Runs this checkout's `tools/cli_digests.py --seed N` on the `morphguard`
package of a base checkout and on this one's, for seeds 1 and 2. One
script digests both packages, so a change that adds a command to the
digest list compares that command's outputs too, rather than failing
on lines the base's own script never printed. It prints a
markdown report of every digest line that differs, also appending it to
`--summary` if given (for example `$GITHUB_STEP_SUMMARY`), and exits 1
when a line differs while both checkouts report the same
`morphguard.__version__`:

    git worktree add --detach ../base <base commit>
    python3 tools/digest_gate.py ../base

A version bump lets bytes move; the report then names what moved and
lists the files that kept their bytes.
"""

from __future__ import annotations

import argparse
import difflib
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)


def digests(checkout: Path, seed: int) -> list[str]:
    run = [sys.executable, str(HEAD / "tools" / "cli_digests.py"), "--seed", str(seed), str(checkout)]
    return subprocess.run(run, check=True, capture_output=True, text=True).stdout.splitlines(keepends=True)


def version(checkout: Path) -> str:
    code = f"import sys; sys.path.insert(0, {str(checkout / 'src')!r}); import morphguard; print(morphguard.__version__)"
    return subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("--summary", type=Path, help="markdown file to append the report to")
    args = parser.parse_args(argv)
    base = args.base.resolve()
    versions = version(base), version(HEAD)
    lines = [f"## CLI output digests: base {versions[0]}, head {versions[1]}", ""]
    moved = False
    for seed in SEEDS:
        before, after = digests(base, seed), digests(HEAD, seed)
        diff = list(difflib.unified_diff(before, after, "base", "head", n=0))
        moved |= bool(diff)
        lines.append(f"Seed {seed}: {len(after)} files, {'bytes moved' if diff else 'no byte moved'}.")
        if diff:
            lines += ["", "```diff", *(line.rstrip("\n") for line in diff), "```"]
            # So a version bump's claim of what kept its bytes can be read here.
            kept = sorted(set(before) & set(after))
            lines += ["", f"Seed {seed} kept the bytes of {len(kept)} of {len(after)} files:"]
            lines += [f"- `{line.rsplit(' ', 1)[0]}`" for line in kept]
        lines.append("")
    failed = moved and versions[0] == versions[1]
    if failed:
        lines.append(f"Output bytes moved but the version stayed {versions[1]}: bump it and say why in the README.")
    report = "\n".join(lines).rstrip() + "\n"
    print(report, end="")
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as fh:
            fh.write(report)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
