"""Write the CLI output set that a change is compared on, one file per command.

Usage:  python tools/cli_snapshot.py OUTDIR [CHECKOUT]

Runs the struveint CLI of CHECKOUT (default: the checkout holding this
script) on:

- ``verify`` as CSV and JSON, on the default grid, on the grids of
  ``perfbench/workloads.verify_grids`` for seeds 1, 41 and 45, and on
  the default grid with ``x_values`` [1e-170, 1e-160], where most
  integrals underflow to 0, with ``x_values`` [0.25, 1, 2, 16, 17]
  (``pow2-x``: powers of two, which are split points of every larger
  upper limit, so that [0, x] is itself a panel of those quadratures,
  and 17, just past 16), with ``x_values`` [0.5, 5, 40, 75]
  (``large-node``: GK15 nodes past ``SCALED_SWITCH_X`` = 30, which take
  the large-x expansion of ``L_nu`` or, where it declines, its power
  series), and with ``tolerances`` setting ``tightness_low`` (an
  unknown tolerance);
- ``table table1|table2|dconstants`` as CSV and JSON;
- the README ``eval`` and ``dconst`` examples, ``eval struve-l`` at
  x = 705 and 720 (either side of where L_0 leaves binary64) and at
  (nu, x) = (5, 0.0209) (where the rounding of the first term's
  exponent dominates the series estimate), ``eval struve-l-scaled`` at
  (nu, x) = (10, 1e4) and (-1.4, 35), ``eval integral`` at x = 300
  (these three from a large-x expansion), at gamma = nu = n = 0,
  x = 712 (past exp(709), still below the largest double), at
  gamma = n = 0, nu = 200, x = 2000 (1.09e202, whose exp(-x)-scaled
  value underflows; the offset form keeps exp(k), k = floor(nu log x))
  and at nu = 500, x = 5 (below the smallest double: 0), ``dconst``
  at (nu, n) = (3, 2) (whose descending ratio scan stops below
  x = (n+2) D) and at the pair (-0.519290808148034,
  0.47813704333253915) (whose scan maximum is at the right edge, a
  ``DSolverError``), at (-0.4, 2) (whose ratio is flat to an ulp
  near its argmax), at (10, 0) and at (-0.458, 3.365) (whose argmax
  takes the large-x route), ``eval struve-l-scaled`` at (nu, x) = (400, 600)
  (whose first term's log sums parts near 2,000), ``eval integral`` at
  gamma = 0.5, nu = 150, n = 2, x = 1 (a subnormal value), ``eval
  struve-l --nu -1e-3 --x 1`` and ``eval integral --gamma 0.5 --nu -2E-1
  --n 0 --x 1`` (option values that start with "-" but are not plain
  decimals, which the parser must still read as values), and
  ``--version``.

For each command NAME it writes ``NAME.out`` (stdout) and ``NAME.err``
(stderr, then the exit status).  Grid configs go to ``OUTDIR/configs``.
Snapshot two checkouts into two directories and compare them with
``diff -r``.  The grids come from this script's own checkout, so both
snapshots run the same inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

from perfbench import workloads  # noqa: E402

VERIFY_SEEDS = (1, 41, 45)

#: Extra verify grids by name: config overrides of the default grid.
EXTRA_GRIDS = {
    "tiny-x": {"x_values": [1e-170, 1e-160]},
    "pow2-x": {"x_values": [0.25, 1.0, 2.0, 16.0, 17.0]},
    "large-node": {"x_values": [0.5, 5.0, 40.0, 75.0]},
    # the large-x checks take no tolerance: this config is rejected
    "tightness-low": {"tolerances": {"tightness_low": 0.99}},
}

README_EXAMPLES = {
    "eval-struve-l": ["eval", "struve-l", "--nu", "0", "--x", "1"],
    "eval-struve-l-705": ["eval", "struve-l", "--nu", "0", "--x", "705"],
    "eval-struve-l-720": ["eval", "struve-l", "--nu", "0", "--x", "720"],
    "eval-struve-l-small": ["eval", "struve-l", "--nu", "5", "--x", "0.0209"],
    "eval-struve-l-scaled": ["eval", "struve-l-scaled", "--nu", "0", "--x", "400"],
    "eval-struve-l-scaled-1e4": ["eval", "struve-l-scaled", "--nu", "10", "--x", "10000"],
    "eval-struve-l-scaled-35": ["eval", "struve-l-scaled", "--nu", "-1.4", "--x", "35"],
    "eval-integral": ["eval", "integral", "--gamma", "0.5", "--nu", "0", "--n", "0",
                      "--x", "1", "--format", "json"],
    "eval-integral-300": ["eval", "integral", "--gamma", "0.5", "--nu", "1", "--n", "0",
                          "--x", "300"],
    "eval-integral-712": ["eval", "integral", "--gamma", "0", "--nu", "0", "--n", "0",
                          "--x", "712"],
    "eval-integral-nu200": ["eval", "integral", "--gamma", "0", "--nu", "200", "--n", "0",
                            "--x", "2000"],
    "eval-integral-nu500": ["eval", "integral", "--gamma", "0", "--nu", "500", "--n", "0",
                            "--x", "5"],
    "dconst": ["dconst", "--nu", "0", "--n", "0"],
    "dconst-3-2": ["dconst", "--nu", "3", "--n", "2"],
    "dconst-right-edge": ["dconst", "--nu", "-0.519290808148034",
                          "--n", "0.47813704333253915"],
    "dconst-flat-argmax": ["dconst", "--nu", "-0.4", "--n", "2"],
    "dconst-10-0": ["dconst", "--nu", "10", "--n", "0"],
    "dconst-large-x-argmax": ["dconst", "--nu", "-0.458", "--n", "3.365"],
    "eval-struve-l-scaled-400": ["eval", "struve-l-scaled", "--nu", "400", "--x", "600"],
    "eval-integral-subnormal": ["eval", "integral", "--gamma", "0.5", "--nu", "150",
                                "--n", "2", "--x", "1"],
    "eval-struve-l-dash-exponent": ["eval", "struve-l", "--nu", "-1e-3", "--x", "1"],
    "eval-integral-dash-exponent": ["eval", "integral", "--gamma", "0.5", "--nu", "-2E-1",
                                    "--n", "0", "--x", "1"],
    "version": ["--version"],
}


def commands(outdir: Path) -> dict[str, list[str]]:
    configs = outdir / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    named = {f"seed{seed}-{i}": grid for seed in VERIFY_SEEDS
             for i, grid in enumerate(workloads.verify_grids(seed))}
    named.update(EXTRA_GRIDS)
    grids = {"default": []}
    for name, grid in named.items():
        path = configs / f"{name}.json"
        path.write_text(json.dumps(grid) + "\n")
        grids[name] = ["--config", str(path)]
    out = {}
    for grid, extra in grids.items():
        for fmt in ("csv", "json"):
            out[f"verify-{grid}-{fmt}"] = ["verify", *extra, "--format", fmt]
    for kind in ("table1", "table2", "dconstants"):
        for fmt in ("csv", "json"):
            out[f"table-{kind}-{fmt}"] = ["table", kind, "--format", fmt]
    out.update(README_EXAMPLES)
    return out


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    checkout = Path(argv[1]).resolve() if len(argv) == 2 else HERE
    src = checkout / "src"
    if not (src / "struveint" / "__init__.py").is_file():
        print(f"error: no struveint package under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    for name, args in commands(outdir).items():
        proc = subprocess.run(
            [sys.executable, "-m", "struveint.cli", *args],
            env=env, capture_output=True, text=True, check=False,
        )
        (outdir / f"{name}.out").write_text(proc.stdout)
        (outdir / f"{name}.err").write_text(f"{proc.stderr}exit status: {proc.returncode}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
