"""A seeded fuzz of the command line's error contract.

Each case copies the bundled 51-state fixture, writes a config (300/100
iterations, 10 bootstrap replicates, the weighted-mean benchmark, and
either a 5-point gamma grid or gamma = 0.5), applies one or two seeded
mutations to the area CSV, the edge list or the config, and calls
``cli.main`` for one of ``fit``, ``cv``, ``estimate`` and ``run``.  The
contract: the exit code is 0, 2 or 3, no exception escapes, and nothing
warns.  The output directory is given by ``--out`` inside the case's own
directory, so that no mutation of the config can send output elsewhere.

``tests/test_cli.py`` runs a fixed list of seeds.  A longer campaign:

    PYTHONPATH=src python tests/fuzz_cli.py --cases 12800

prints every case that breaks the contract and a tally of the outcomes,
and exits 1 if any case broke it.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import random
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

from smallarea import cli
from smallarea.datasets import synthetic_dataset_path, us_state_borders_path

COMMANDS = ("fit", "cv", "estimate", "run")
VALUES = ("", "nan", "inf", "-inf", "-1", "0", "1e308", "1e-320", "1e400", "abc", "\x00", "\ufeff", "é")
# a value lands in a number more often than a line's structure changes
MUTATIONS = {"value": 3, "delete": 1, "duplicate": 1, "truncate": 1, "append": 1, "separator": 1, "flip": 1}
BASE = {
    "area_csv": "areas.csv",
    "edge_list": "edges.txt",
    "covariate_columns": "tax_poverty_rate,nonfiler_rate,foodstamp_rate",
    "group_column": "group",
    "benchmark_weight_column": "benchmark_weight",
    "benchmark_target": "15.0",
    "gibbs_iterations": "300",
    "gibbs_burn": "100",
    "bootstrap_replicates": "10",
    "seed": "1",
    "output_dir": "out",
}
GAMMAS = ({"gamma_grid": "0.01,100,5"}, {"gamma": "0.5"})


def mutate(data: bytes, separator: bytes, rng: random.Random) -> tuple[bytes, str]:
    """``data``, a file's bytes, with one seeded mutation, and what it was.
    ``separator`` splits a line into the cells a value replaces: ``,`` in
    the CSV and the edge list, ``=`` in the config."""
    kind = rng.choices(list(MUTATIONS), list(MUTATIONS.values()))[0]
    if kind == "flip":
        at, bit = rng.randrange(len(data)), rng.randrange(8)
        flipped = bytearray(data)
        flipped[at] ^= 1 << bit
        return bytes(flipped), f"flip bit {bit} of byte {at}"
    lines = data.split(b"\n")
    i = rng.randrange(len(lines))
    line = lines[i]
    if kind == "value":
        value = rng.choice(VALUES)
        cells = line.split(separator)
        j = rng.randrange(len(cells))
        cells[j] = value.encode()
        lines[i] = separator.join(cells)
        what = f"cell {j} of line {i} = {value!r}"
    elif kind == "delete":
        del lines[i]
        what = f"delete line {i}"
    elif kind == "duplicate":
        lines.insert(i, line)
        what = f"duplicate line {i}"
    elif kind == "truncate":
        cut = rng.randrange(len(line) + 1)
        lines[i] = line[:cut]
        what = f"truncate line {i} to {cut} bytes"
    elif kind == "append":
        tail = rng.choice((b",", b"=", b"#"))
        lines[i] = line + tail
        what = f"append {tail.decode()!r} to line {i}"
    else:
        other = rng.choice([s for s in (b",", b";", b"=", b"\t", b" ") if s != separator])
        lines[i] = line.replace(separator, other)
        what = f"line {i}'s {separator.decode()!r} to {other.decode()!r}"
    return b"\n".join(lines), what


def run_case(seed: int, work: Path) -> tuple[str, str, int | str]:
    """Case ``seed`` in the fresh directory ``work``: its command, its
    mutations, and the exit code, or the exception that escaped."""
    rng = random.Random(seed)
    settings = {**BASE, **rng.choice(GAMMAS)}
    files = {
        "areas.csv": synthetic_dataset_path().read_bytes(),
        "edges.txt": us_state_borders_path().read_bytes(),
        "run.cfg": "".join(f"{k} = {v}\n" for k, v in settings.items()).encode(),
    }
    done = []
    for _ in range(rng.randint(1, 2)):
        name = rng.choice(sorted(files))
        files[name], what = mutate(files[name], b"=" if name == "run.cfg" else b",", rng)
        done.append(f"{name}: {what}")
    work.mkdir(parents=True)
    for name, data in files.items():
        (work / name).write_bytes(data)
    command = rng.choice(COMMANDS)
    argv = [command, "--config", str(work / "run.cfg"), "--out", str(work / "out")]
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        try:
            outcome = cli.main(argv)
        except (Exception, SystemExit) as exc:  # SystemExit: an argparse usage error
            outcome = f"{type(exc).__name__}: {exc}"
    return command, "; ".join(done), outcome


def broken(outcome: int | str) -> bool:
    """Whether a case's outcome breaks the contract."""
    return outcome not in (0, 2, 3)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=1000, help="number of cases (default 1000)")
    parser.add_argument("--first-seed", type=int, default=0, help="seed of the first case (default 0)")
    args = parser.parse_args(argv)
    tally = collections.Counter()
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(args.first_seed, args.first_seed + args.cases):
            command, what, outcome = run_case(seed, Path(tmp) / str(seed))
            shutil.rmtree(Path(tmp) / str(seed))
            tally[command, outcome if not broken(outcome) else "broken"] += 1
            if broken(outcome):
                failures += 1
                print(f"seed {seed}: {command}: {what}: {outcome}")
    for (command, outcome), n in sorted(tally.items(), key=str):
        print(f"{command:9s} {outcome!s:7s} {n}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
